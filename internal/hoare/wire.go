// This file implements the binary Hoare-graph record used by the
// distributed Step-2 shard format (internal/dist): the same graph content
// as the .hg text form of serial.go, but with every expression replaced by
// an index into a shared interned-expression table (expr.Table), so shared
// subterms are emitted once per shard rather than re-rendered at every
// occurrence. Like the text form, instructions are stored by address only
// and re-fetched from the binary image on decode, so a serialised graph
// cannot silently drift from its binary.
//
// Record format (integers are uvarints; EXPR is a table index; clause
// order is canonical — registers in GPR order, then flags, cmp, memory,
// ranges, model; vertices and edges sorted — so Append∘Decode∘Append is
// the byte identity):
//
//	graph  = funcaddr funcname retsym entry
//	         vertex-count vertex* edge-count edge*
//	         ann-count annotation* obl-count TEXT* asm-count TEXT*
//	vertex = id addr has-state state?
//	state  = reg-count   (gpr-index EXPR)*
//	         flag-count  (flag EXPR)*
//	         has-cmp     (cmp-kind size EXPR EXPR)?
//	         mem-count   (EXPR size EXPR)*
//	         range-count (EXPR lo64 hi64)*       lo/hi raw little-endian
//	         forest
//	forest = tree-count tree*
//	tree   = region-count (EXPR size)* kid-count tree*
//	edge   = from to out-kind addr callee
//
// The encoder's callers (dist) first collect every expression of the
// shard's graphs into one expr.Table via CollectWireExprs, append the
// table once, then append each graph record against it.

package hoare

import (
	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/wire"
	"repro/internal/x86"
)

// CollectWireExprs adds every expression reachable from the graph's vertex
// invariants (equality, flag, comparison, memory and interval clauses, and
// memory-model regions) to the table, in the canonical clause order, so
// the table layout is deterministic in the graph.
func CollectWireExprs(t *expr.Table, g *Graph) {
	for _, v := range g.SortedVertices() {
		if v.State == nil {
			continue
		}
		p := v.State.Pred
		for _, r := range x86.GPRs {
			if e := p.Reg(r); e != nil {
				t.Add(e)
			}
		}
		for f := x86.Flag(0); f < x86.NumFlags; f++ {
			if e := p.Flag(f); e != nil {
				t.Add(e)
			}
		}
		if c := p.LastCmp(); c != nil {
			t.Add(c.Lhs)
			t.Add(c.Rhs)
		}
		p.MemEntries(func(e pred.MemEntry) {
			t.Add(e.Addr)
			t.Add(e.Val)
		})
		p.Ranges(func(e *expr.Expr, r pred.Range) {
			t.Add(e)
		})
		collectForest(t, v.State.Mem)
	}
}

func collectForest(t *expr.Table, f memmodel.Forest) {
	for _, tree := range f {
		for _, r := range tree.Regions {
			t.Add(r.Addr)
		}
		collectForest(t, tree.Kids)
	}
}

// AppendWire appends the graph's binary record to buf. Every expression of
// the graph must already be in the table (see CollectWireExprs).
func AppendWire(buf []byte, t *expr.Table, g *Graph) []byte {
	idx := func(e *expr.Expr) uint64 { return uint64(t.Index(e)) }
	buf = wire.AppendUvarint(buf, g.FuncAddr)
	buf = wire.AppendString(buf, g.FuncName)
	buf = wire.AppendString(buf, string(g.RetSym))
	buf = wire.AppendString(buf, string(g.EntryID))

	vertices := g.SortedVertices()
	buf = wire.AppendUvarint(buf, uint64(len(vertices)))
	for _, v := range vertices {
		buf = wire.AppendString(buf, string(v.ID))
		buf = wire.AppendUvarint(buf, v.Addr)
		if v.State == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		p := v.State.Pred

		var regs []uint64
		for ri, r := range x86.GPRs {
			if e := p.Reg(r); e != nil {
				regs = append(regs, uint64(ri), idx(e))
			}
		}
		buf = wire.AppendUvarint(buf, uint64(len(regs)/2))
		for _, u := range regs {
			buf = wire.AppendUvarint(buf, u)
		}

		var flags []uint64
		for f := x86.Flag(0); f < x86.NumFlags; f++ {
			if e := p.Flag(f); e != nil {
				flags = append(flags, uint64(f), idx(e))
			}
		}
		buf = wire.AppendUvarint(buf, uint64(len(flags)/2))
		for _, u := range flags {
			buf = wire.AppendUvarint(buf, u)
		}

		if c := p.LastCmp(); c != nil {
			buf = append(buf, 1)
			buf = wire.AppendUvarint(buf, uint64(c.Kind))
			buf = wire.AppendUvarint(buf, uint64(c.Size))
			buf = wire.AppendUvarint(buf, idx(c.Lhs))
			buf = wire.AppendUvarint(buf, idx(c.Rhs))
		} else {
			buf = append(buf, 0)
		}

		var mems []pred.MemEntry
		p.MemEntries(func(e pred.MemEntry) { mems = append(mems, e) })
		buf = wire.AppendUvarint(buf, uint64(len(mems)))
		for _, e := range mems {
			buf = wire.AppendUvarint(buf, idx(e.Addr))
			buf = wire.AppendUvarint(buf, uint64(e.Size))
			buf = wire.AppendUvarint(buf, idx(e.Val))
		}

		type rangeClause struct {
			e *expr.Expr
			r pred.Range
		}
		var ranges []rangeClause
		p.Ranges(func(e *expr.Expr, r pred.Range) { ranges = append(ranges, rangeClause{e, r}) })
		buf = wire.AppendUvarint(buf, uint64(len(ranges)))
		for _, rc := range ranges {
			buf = wire.AppendUvarint(buf, idx(rc.e))
			buf = wire.AppendUint64(buf, rc.r.Lo)
			buf = wire.AppendUint64(buf, rc.r.Hi)
		}

		buf = appendForest(buf, t, v.State.Mem)
	}

	edges := g.SortedEdges()
	buf = wire.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = wire.AppendString(buf, string(e.From))
		buf = wire.AppendString(buf, string(e.To))
		buf = wire.AppendUvarint(buf, uint64(e.Kind))
		buf = wire.AppendUvarint(buf, e.Inst.Addr)
		buf = wire.AppendString(buf, e.Callee)
	}

	buf = wire.AppendUvarint(buf, uint64(len(g.Annotations)))
	for _, a := range g.Annotations {
		buf = wire.AppendUvarint(buf, a.Addr)
		buf = wire.AppendUvarint(buf, uint64(a.Kind))
		buf = wire.AppendString(buf, a.Text)
	}
	buf = wire.AppendUvarint(buf, uint64(len(g.Obligations)))
	for _, o := range g.Obligations {
		buf = wire.AppendString(buf, o)
	}
	buf = wire.AppendUvarint(buf, uint64(len(g.Assumptions)))
	for _, a := range g.Assumptions {
		buf = wire.AppendString(buf, a)
	}
	return buf
}

func appendForest(buf []byte, t *expr.Table, f memmodel.Forest) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(f)))
	for _, tree := range f {
		buf = wire.AppendUvarint(buf, uint64(len(tree.Regions)))
		for _, r := range tree.Regions {
			buf = wire.AppendUvarint(buf, uint64(t.Index(r.Addr)))
			buf = wire.AppendUvarint(buf, r.Size)
		}
		buf = appendForest(buf, t, tree.Kids)
	}
	return buf
}

// DecodeWire decodes one binary graph record from the cursor against the
// decoded expression table, re-fetching every edge's instruction from the
// image (exactly like the text loader, the record stores addresses only).
func DecodeWire(d *wire.Decoder, nodes []*expr.Expr, img *image.Image) (*Graph, error) {
	node := func(what string) *expr.Expr {
		i := d.Uvarint(what)
		if d.Err() != nil {
			return nil
		}
		if i >= uint64(len(nodes)) {
			d.Failf("%s expression index %d out of range (table has %d)", what, i, len(nodes))
			return nil
		}
		return nodes[i]
	}

	funcAddr := d.Uvarint("function address")
	funcName := d.String("function name")
	retSym := d.String("return symbol")
	entry := d.String("entry id")
	if d.Err() != nil {
		return nil, d.Err()
	}
	g := NewGraph(funcAddr, funcName, expr.Var(retSym))
	g.EntryID = VertexID(entry)

	nVertices := d.Len("vertex")
	for i := 0; i < nVertices && d.Err() == nil; i++ {
		id := VertexID(d.String("vertex id"))
		addr := d.Uvarint("vertex address")
		v := &Vertex{ID: id, Addr: addr}
		if d.Byte("vertex state flag") == 1 {
			v.State = sem.NewState()
			decodeState(d, v.State, node)
		}
		if d.Err() == nil {
			g.Vertices[id] = v
		}
	}

	nEdges := d.Len("edge")
	for i := 0; i < nEdges && d.Err() == nil; i++ {
		from := VertexID(d.String("edge from"))
		to := VertexID(d.String("edge to"))
		kind := d.Uvarint("edge kind")
		addr := d.Uvarint("edge address")
		callee := d.String("edge callee")
		if d.Err() != nil {
			break
		}
		inst, err := img.Fetch(addr)
		if err != nil {
			d.Failf("edge instruction: %v", err)
			break
		}
		g.Instrs[addr] = inst
		g.AddEdge(Edge{From: from, To: to, Inst: inst, Kind: sem.OutKind(kind), Callee: callee})
	}

	nAnns := d.Len("annotation")
	for i := 0; i < nAnns && d.Err() == nil; i++ {
		addr := d.Uvarint("annotation address")
		kind := d.Uvarint("annotation kind")
		text := d.String("annotation text")
		if d.Err() == nil {
			g.Annotate(addr, AnnKind(kind), text)
		}
	}
	nObl := d.Len("obligation")
	for i := 0; i < nObl && d.Err() == nil; i++ {
		g.Obligations = append(g.Obligations, d.String("obligation"))
	}
	nAsm := d.Len("assumption")
	for i := 0; i < nAsm && d.Err() == nil; i++ {
		g.Assumptions = append(g.Assumptions, d.String("assumption"))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if g.EntryID == "" {
		d.Failf("graph has no entry vertex")
		return nil, d.Err()
	}
	return g, nil
}

// decodeState reads one vertex state's clauses.
func decodeState(d *wire.Decoder, st *sem.State, node func(string) *expr.Expr) {
	nRegs := d.Len("register clause")
	for i := 0; i < nRegs && d.Err() == nil; i++ {
		ri := d.Uvarint("register index")
		e := node("register value")
		if d.Err() != nil {
			return
		}
		if ri >= uint64(len(x86.GPRs)) {
			d.Failf("register index %d out of range", ri)
			return
		}
		st.Pred.SetReg(x86.GPRs[ri], e)
	}
	nFlags := d.Len("flag clause")
	for i := 0; i < nFlags && d.Err() == nil; i++ {
		f := d.Uvarint("flag")
		e := node("flag value")
		if d.Err() != nil {
			return
		}
		if f >= uint64(x86.NumFlags) {
			d.Failf("flag %d out of range", f)
			return
		}
		st.Pred.SetFlag(x86.Flag(f), e)
	}
	if d.Byte("cmp flag") == 1 {
		kind := d.Uvarint("cmp kind")
		size := d.Uvarint("cmp size")
		lhs := node("cmp lhs")
		rhs := node("cmp rhs")
		if d.Err() != nil {
			return
		}
		c := &pred.Cmp{Kind: pred.CmpKind(kind), Lhs: lhs, Rhs: rhs, Size: int(size)}
		// SetCmp clears the flag clauses; the record stores flags before
		// cmp (canonical clause order), so snapshot and restore them,
		// exactly like the text loader.
		flags := snapshotFlags(st)
		st.Pred.SetCmp(c)
		restoreFlags(st, flags)
	}
	// Clause lists are installed as decoded, in one pass: a list out of
	// canonical order, repeating a clause, or holding an interval clause
	// AddRange would not store as given is corrupt.
	nMems := d.Len("memory clause")
	mems := make([]pred.MemEntry, 0, nMems)
	for i := 0; i < nMems && d.Err() == nil; i++ {
		addr := node("memory address")
		size := d.Uvarint("memory size")
		val := node("memory value")
		if d.Err() != nil {
			return
		}
		mems = append(mems, pred.MemEntry{Addr: addr, Size: int(size), Val: val})
	}
	if err := st.Pred.SetMemClauses(mems); err != nil {
		d.Failf("%v", err)
		return
	}
	nRanges := d.Len("range clause")
	ranges := make([]pred.RangeClause, 0, nRanges)
	for i := 0; i < nRanges && d.Err() == nil; i++ {
		e := node("range expression")
		lo := d.Uint64("range lo")
		hi := d.Uint64("range hi")
		if d.Err() != nil {
			return
		}
		ranges = append(ranges, pred.RangeClause{E: e, R: pred.Range{Lo: lo, Hi: hi}})
	}
	if err := st.Pred.SetRangeClauses(ranges); err != nil {
		d.Failf("%v", err)
		return
	}
	st.Mem = decodeForest(d, node)
}

func decodeForest(d *wire.Decoder, node func(string) *expr.Expr) memmodel.Forest {
	n := d.Len("memory-model tree")
	var out memmodel.Forest
	for i := 0; i < n && d.Err() == nil; i++ {
		t := &memmodel.Tree{}
		nRegions := d.Len("memory-model region")
		for j := 0; j < nRegions && d.Err() == nil; j++ {
			addr := node("region address")
			size := d.Uvarint("region size")
			if d.Err() != nil {
				return nil
			}
			t.Regions = append(t.Regions, solver.Region{Addr: addr, Size: size})
		}
		t.Kids = decodeForest(d, node)
		if d.Err() == nil {
			out = append(out, t)
		}
	}
	return out
}
