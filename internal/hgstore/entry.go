package hgstore

// The entry payload: one cached pipeline-task outcome. The payload
// restores everything the scheduler would have produced by lifting —
// status, statistics replay (graph counts, solver/fork counters, original
// wall time), and the function results with their Hoare graphs — so a
// warm run's tables are byte-identical to the cold run's.
//
// Payload grammar (integers are uvarints unless noted; EXPR-TABLE and
// GRAPH are the PR 6 wire formats of internal/expr and internal/hoare):
//
//	payload = status(byte)
//	          graph-stats          10 uvarints, hoare.Stats field order
//	          sem-counters         6 uvarints
//	          wall-ns duration-ns
//	          dep-count (addr len)* dep-hash(u64 raw)
//	          EXPR-TABLE
//	          func-count funcrec*
//	          entry-index+1        0 = function task (no binary entry)
//	funcrec = name addr status(byte) returns(bool) steps
//	          reason-count reason* duration-ns has-graph GRAPH?
//
// The dependency ranges are the union of every instruction the lift
// decoded, merged into contiguous runs, with a content hash over their
// bytes. The primary key only covers the task's own code bytes; the
// ranges close the soundness gap for callees and helpers a function task
// explored: Lookup re-reads the ranges from the current image and treats
// any drift as a (stale) miss, so editing a callee re-lifts its callers
// even though their own bytes are unchanged.

import (
	"errors"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/sem"
	"repro/internal/wire"
)

// ErrStale marks an entry whose dependency code bytes no longer match the
// image: structurally valid, semantically outdated.
var ErrStale = errors.New("hgstore: entry is stale (dependency code bytes changed)")

// Entry is one decoded cached outcome.
type Entry struct {
	// Status is the task-level outcome (the binary's status for binary
	// tasks, the function's otherwise).
	Status core.Status
	// Graph, Sem and Wall replay the lift's statistics record exactly as
	// the cold run measured it — Joins included, which a decoded graph
	// cannot recompute (the wire format stores invariants, not join
	// counts) — so warm summaries aggregate identically to cold ones.
	Graph hoare.Stats
	Sem   sem.Counters
	// Wall is the original lift's wall time, Duration the binary task's
	// total (== Funcs[0].Duration for function tasks).
	Wall     time.Duration
	Duration time.Duration
	// Funcs holds the function results: exactly one for function tasks,
	// every explored function (in address order) for binary tasks.
	Funcs []*core.FuncResult
	// EntryIndex is the index in Funcs of the binary's entry function;
	// -1 for function tasks.
	EntryIndex int

	deps    []depRun
	depHash uint64
}

// depRun is one contiguous range of instruction bytes the lift depends on.
type depRun struct {
	addr uint64
	size uint64
}

// Storable reports whether a lift outcome may be cached. Panics,
// cancellations and expired wall-clock deadlines are accidents of the
// process, the machine and the moment, not properties of the binary. A
// step-budget timeout (core.Config.MaxStates) is deterministic, so it is
// stored like any analysis outcome: that is what lets a warm Table 1 —
// whose corpus includes budget-exhausted units by design — hit on every
// task, with or without a wall-clock budget.
func Storable(status core.Status) bool {
	switch status {
	case core.StatusPanic, core.StatusCancelled, core.StatusDeadline:
		return false
	default:
		return true
	}
}

// Seal computes the entry's dependency ranges and their content hash from
// the graphs' decoded instructions, reading the bytes back from the image
// the lift ran against. It must be called before Put; an entry whose
// dependency bytes cannot be re-read is not cacheable.
func (e *Entry) Seal(img *image.Image) error {
	spans := map[uint64]uint64{}
	for _, fr := range e.Funcs {
		if fr.Graph == nil {
			continue
		}
		for addr, inst := range fr.Graph.Instrs {
			if n := uint64(inst.Len); n > spans[addr] {
				spans[addr] = n
			}
		}
	}
	addrs := make([]uint64, 0, len(spans))
	for a := range spans {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.deps = e.deps[:0]
	for _, a := range addrs {
		n := spans[a]
		if k := len(e.deps); k > 0 && e.deps[k-1].addr+e.deps[k-1].size >= a {
			if end := a + n; end > e.deps[k-1].addr+e.deps[k-1].size {
				e.deps[k-1].size = end - e.deps[k-1].addr
			}
			continue
		}
		e.deps = append(e.deps, depRun{addr: a, size: n})
	}
	h, ok := depHash(img, e.deps)
	if !ok {
		return errors.New("hgstore: dependency bytes not readable from image")
	}
	e.depHash = h
	return nil
}

// depHash folds the run addresses and their current image bytes.
func depHash(img *image.Image, deps []depRun) (uint64, bool) {
	h := hashSeed
	for _, r := range deps {
		b, ok := img.File().ReadAt(r.addr, int(r.size))
		if !ok {
			return 0, false
		}
		h = expr.MixFP(h, r.addr)
		h = hashBytes(h, b)
	}
	return h, true
}

// appendPayload appends the entry's wire encoding.
func (e *Entry) appendPayload(buf []byte) []byte {
	buf = append(buf, byte(e.Status))
	g := e.Graph
	for _, v := range []int{
		g.Instructions, g.States, g.ResolvedInd, g.UnresolvedJump,
		g.UnresolvedCall, g.Edges, g.Obligations, g.Assumptions,
		g.WeirdVertices, g.Joins,
	} {
		buf = wire.AppendUvarint(buf, uint64(v))
	}
	buf = wire.AppendUvarint(buf, e.Sem.SolverQueries)
	buf = wire.AppendUvarint(buf, e.Sem.SolverHits)
	buf = wire.AppendUvarint(buf, e.Sem.Forks)
	buf = wire.AppendUvarint(buf, e.Sem.Destroys)
	buf = wire.AppendUvarint(buf, e.Sem.FactHits)
	buf = wire.AppendUvarint(buf, e.Sem.Fallbacks)
	buf = wire.AppendUvarint(buf, uint64(e.Wall))
	buf = wire.AppendUvarint(buf, uint64(e.Duration))

	buf = wire.AppendUvarint(buf, uint64(len(e.deps)))
	for _, r := range e.deps {
		buf = wire.AppendUvarint(buf, r.addr)
		buf = wire.AppendUvarint(buf, r.size)
	}
	buf = wire.AppendUint64(buf, e.depHash)

	t := expr.NewTable()
	for _, fr := range e.Funcs {
		if graphStorable(fr) {
			hoare.CollectWireExprs(t, fr.Graph)
		}
	}
	buf = expr.AppendTable(buf, t)

	buf = wire.AppendUvarint(buf, uint64(len(e.Funcs)))
	for _, fr := range e.Funcs {
		buf = wire.AppendString(buf, fr.Name)
		buf = wire.AppendUvarint(buf, fr.Addr)
		buf = append(buf, byte(fr.Status))
		buf = appendBool(buf, fr.Returns)
		buf = wire.AppendUvarint(buf, uint64(fr.Steps))
		buf = wire.AppendUvarint(buf, uint64(len(fr.Reasons)))
		for _, r := range fr.Reasons {
			buf = wire.AppendString(buf, r)
		}
		buf = wire.AppendUvarint(buf, uint64(fr.Duration))
		if graphStorable(fr) {
			buf = append(buf, 1)
			buf = hoare.AppendWire(buf, t, fr.Graph)
		} else {
			buf = append(buf, 0)
		}
	}
	return wire.AppendUvarint(buf, uint64(e.EntryIndex+1))
}

// graphStorable reports whether a function result carries a graph the
// wire format can round-trip (an abandoned lift may have none, or one
// whose entry vertex was never created).
func graphStorable(fr *core.FuncResult) bool {
	return fr.Graph != nil && fr.Graph.EntryID != ""
}

// decodePayload decodes one entry against the image, validating the
// dependency ranges: a hash mismatch (or unreadable range) returns
// ErrStale, any structural problem returns the decoder's error. Graph
// decoding re-fetches instructions from the image and restores interned
// expression pointer identity (hoare.DecodeWire).
func decodePayload(d *wire.Decoder, img *image.Image) (*Entry, error) {
	e := &Entry{Status: core.Status(d.Byte("status"))}
	for _, p := range []*int{
		&e.Graph.Instructions, &e.Graph.States, &e.Graph.ResolvedInd,
		&e.Graph.UnresolvedJump, &e.Graph.UnresolvedCall, &e.Graph.Edges,
		&e.Graph.Obligations, &e.Graph.Assumptions, &e.Graph.WeirdVertices,
		&e.Graph.Joins,
	} {
		*p = int(d.Uvarint("graph stat"))
	}
	e.Sem.SolverQueries = d.Uvarint("solver queries")
	e.Sem.SolverHits = d.Uvarint("solver hits")
	e.Sem.Forks = d.Uvarint("forks")
	e.Sem.Destroys = d.Uvarint("destroys")
	e.Sem.FactHits = d.Uvarint("fact hits")
	e.Sem.Fallbacks = d.Uvarint("fallbacks")
	e.Wall = time.Duration(d.Uvarint("wall"))
	e.Duration = time.Duration(d.Uvarint("duration"))

	nDeps := d.Len("dependency run")
	for i := 0; i < nDeps && d.Err() == nil; i++ {
		addr := d.Uvarint("dependency address")
		size := d.Uvarint("dependency size")
		e.deps = append(e.deps, depRun{addr: addr, size: size})
	}
	e.depHash = d.Uint64("dependency hash")
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Validate dependencies before paying for graph decode: the common
	// stale case (a callee changed) should cost a few ReadAt calls.
	if h, ok := depHash(img, e.deps); !ok || h != e.depHash {
		return nil, ErrStale
	}

	nodes, err := expr.DecodeTable(d)
	if err != nil {
		return nil, err
	}
	nFuncs := d.Len("function record")
	for i := 0; i < nFuncs && d.Err() == nil; i++ {
		fr := &core.FuncResult{
			Name:   d.String("function name"),
			Addr:   d.Uvarint("function address"),
			Status: core.Status(d.Byte("function status")),
		}
		fr.Returns = decodeBool(d, "returns")
		fr.Steps = int(d.Uvarint("steps"))
		nReasons := d.Len("reason")
		for j := 0; j < nReasons && d.Err() == nil; j++ {
			fr.Reasons = append(fr.Reasons, d.String("reason"))
		}
		fr.Duration = time.Duration(d.Uvarint("function duration"))
		if decodeBool(d, "graph flag") && d.Err() == nil {
			g, err := hoare.DecodeWire(d, nodes, img)
			if err != nil {
				return nil, err
			}
			fr.Graph = g
		}
		if d.Err() == nil {
			e.Funcs = append(e.Funcs, fr)
		}
	}
	e.EntryIndex = int(d.Uvarint("entry index")) - 1
	if err := d.Err(); err != nil {
		return nil, err
	}
	if e.EntryIndex >= len(e.Funcs) {
		return nil, errors.New("hgstore: entry index out of range")
	}
	return e, nil
}
