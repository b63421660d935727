package hgstore_test

// Fuzz target for the HGCS container: for ANY byte string presented as a
// store file, Open must return without error or panic (content defects
// are misses, not failures), and every record that survives loading must
// either decode cleanly or miss with a reason under Lookup. Seeded with a
// real populated container, its truncations, bit-corrupted variants, and
// a standalone graph file (the wrong file kind for a store).

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/wire"
)

// fuzzImage lazily builds one corpus scenario image for Lookup probing.
var fuzzImage = sync.OnceValues(func() (*corpus.Scenario, error) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		return nil, err
	}
	return scenarios[0], nil
})

func FuzzStoreOpen(f *testing.F) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	var graphSeed []byte
	for _, s := range scenarios {
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		e := &hgstore.Entry{
			Status:     fr.Status,
			Graph:      fr.Stats(),
			Sem:        l.Counters(),
			Funcs:      []*core.FuncResult{fr},
			EntryIndex: -1,
		}
		if _, err := st.Put(hgstore.TaskKey(s.Image, s.FuncAddr, false, nil), e, s.Image); err != nil {
			f.Fatal(err)
		}
		if graphSeed == nil && fr.Graph != nil && fr.Graph.EntryID != "" {
			graphSeed = hgstore.MarshalGraph(fr.Graph)
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	f.Add([]byte("HGCS"))
	f.Add([]byte{})
	if graphSeed != nil {
		f.Add(graphSeed) // wrong file kind for a store
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/3] ^= 0x80
	f.Add(corrupt)
	f.Add(swappedClauseStore(f, scenarios[0], dir))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.hgcs")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := hgstore.Open(p)
		if err != nil {
			t.Fatalf("Open returned a content error: %v", err)
		}
		probe, perr := fuzzImage()
		if perr != nil {
			t.Skip()
		}
		for _, k := range s.Keys() {
			e, n, _, reason := s.Lookup(k, probe.Image)
			if e == nil && reason == "" {
				t.Fatal("miss without a reason")
			}
			if e != nil && n <= 0 {
				t.Fatal("hit with non-positive payload size")
			}
		}
		// The loaded prefix must survive a rewrite round-trip: Put-ing
		// one more record flushes the container, which must reopen to at
		// least the same records.
		before := s.Len()
		probeEntry := &hgstore.Entry{Status: core.StatusError, EntryIndex: -1}
		key := hgstore.TaskKey(probe.Image, probe.FuncAddr, false, nil)
		if _, err := s.Put(key, probeEntry, probe.Image); err != nil {
			t.Fatalf("Put after load: %v", err)
		}
		re, err := hgstore.Open(p)
		if err != nil {
			t.Fatalf("reopen after rewrite: %v", err)
		}
		if re.Dropped() != 0 {
			t.Fatalf("rewritten container drops %d records", re.Dropped())
		}
		if re.Len() < before {
			t.Fatalf("rewrite lost records: %d -> %d", before, re.Len())
		}
	})
}

// swappedClauseStore returns a one-record container for scenario s whose
// graph lists two memory clauses of one vertex out of canonical order,
// resealed under a valid checksum: the container opens, and Lookup must
// then miss it as corrupt rather than install the list.
func swappedClauseStore(f *testing.F, s *corpus.Scenario, dir string) []byte {
	l := core.New(s.Image, core.DefaultConfig())
	fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	if fr.Graph == nil || fr.Graph.EntryID == "" {
		f.Fatalf("%s: no graph to store", s.Name)
	}
	e := &hgstore.Entry{Status: fr.Status, Graph: fr.Stats(), Sem: l.Counters(),
		Funcs: []*core.FuncResult{fr}, EntryIndex: -1}
	key := hgstore.TaskKey(s.Image, s.FuncAddr, false, nil)
	path := filepath.Join(dir, "swapped.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Put(key, e, s.Image); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	// Walk the container header and the one record to its payload.
	d := wire.NewDecoder(data)
	d.Bytes(uint64(len(hgstore.Magic)), "magic")
	d.Uvarint("version")
	d.Byte("file kind")
	d.Uint64("code")
	d.Uint64("config")
	d.Uvarint("address")
	d.Byte("binary")
	d.String("lifter version")
	payload := d.Bytes(d.Uvarint("payload length"), "payload") // aliases data
	if d.Err() != nil {
		f.Fatal(d.Err())
	}

	// The first vertex with two or more memory clauses whose encoded
	// list, against the table the payload carries, occurs once in it.
	tab := expr.NewTable()
	hoare.CollectWireExprs(tab, fr.Graph)
	at := -1
	var swapped []byte
	for _, v := range fr.Graph.SortedVertices() {
		if v.State == nil || v.State.Pred.NumMem() < 2 {
			continue
		}
		var clauses [][]byte
		v.State.Pred.MemEntries(func(m pred.MemEntry) {
			b := wire.AppendUvarint(nil, uint64(tab.Index(m.Addr)))
			b = wire.AppendUvarint(b, uint64(m.Size))
			clauses = append(clauses, wire.AppendUvarint(b, uint64(tab.Index(m.Val))))
		})
		head := [][]byte{wire.AppendUvarint(nil, uint64(len(clauses)))}
		list := slices.Concat(append(head, clauses...)...)
		clauses[0], clauses[1] = clauses[1], clauses[0]
		swapped = slices.Concat(append(head, clauses...)...)
		if bytes.Count(payload, list) == 1 {
			at = bytes.Index(payload, list)
			break
		}
	}
	if at < 0 {
		f.Fatalf("%s: no memory clause list to swap", s.Name)
	}
	copy(payload[at:], swapped)
	binary.LittleEndian.PutUint64(data[d.Pos():], hgstore.PayloadChecksum(payload))

	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	re, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if got, _, _, reason := re.Lookup(key, s.Image); got != nil || reason != "corrupt" {
		f.Fatalf("%s: swapped memory clauses: lookup reason %q, want a corrupt miss", s.Name, reason)
	}
	return data
}

// FuzzLoadGraph: for any bytes, LoadGraph returns a graph or an error,
// never a panic. A graph it accepts re-marshals to a file that loads back
// to the same bytes, and hglint reports the same on both loads (the
// analyzer is a deterministic, panic-free function of the loaded graph);
// the lifted seed lints clean. Seeded with the marshal of a lifted
// scenario graph, its truncations, a version-1 file (testdata) and files
// whose record names a tree, forest, expression or vertex out of range.
func FuzzLoadGraph(f *testing.F) {
	s, err := corpus.Ret2Win()
	if err != nil {
		f.Fatal(err)
	}
	fr := core.New(s.Image, core.DefaultConfig()).LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	if fr.Status != core.StatusLifted || fr.Graph == nil {
		f.Fatalf("%s: %s, no lifted graph", s.Name, fr.Status)
	}
	full := hgstore.MarshalGraph(fr.Graph)
	f.Add(full)
	for _, n := range []int{6, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
		f.Add(full[:n])
	}
	corrupt := corruptIndexGraphs(f, full)
	kinds := make([]string, 0, len(corrupt))
	for what := range corrupt {
		kinds = append(kinds, what)
	}
	sort.Strings(kinds)
	for _, what := range kinds {
		if _, err := hgstore.LoadGraph(s.Image, corrupt[what]); err == nil || !strings.Contains(err.Error(), "out of range") {
			f.Fatalf("graph file with a corrupt %s index: %v, want an out-of-range error", what, err)
		}
		f.Add(corrupt[what])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := hgstore.LoadGraph(s.Image, data)
		if err != nil {
			return // rejected inputs are fine; crashes are not
		}
		out := hgstore.MarshalGraph(g)
		g2, err := hgstore.LoadGraph(s.Image, out)
		if err != nil {
			t.Fatalf("re-load of own marshal failed: %v", err)
		}
		if !bytes.Equal(hgstore.MarshalGraph(g2), out) {
			t.Fatal("marshal of an accepted graph is not a fixed point")
		}
		rep, rep2 := hglint.Lint(g), hglint.Lint(g2)
		if !bytes.Equal(rep.JSON(), rep2.JSON()) {
			t.Fatalf("lint differs across the round trip:\n--- first\n%s\n--- second\n%s", rep.JSON(), rep2.JSON())
		}
		if bytes.Equal(data, full) && rep.HasErrors() {
			t.Fatalf("the lifted seed graph must lint clean:\n%s", rep)
		}
	})
}

// corruptIndexGraphs returns copies of a graph file whose record names an
// index one past its table: the first region's expression, the first
// forest's tree, the first state's forest and the first edge's source
// vertex; and one whose first tree gains a subtree that is the tree
// itself. Each is resealed, so only the decoder can reject it.
func corruptIndexGraphs(f *testing.F, file []byte) map[string][]byte {
	d := wire.NewDecoder(file)
	d.Bytes(uint64(len(hgstore.Magic)), "magic")
	d.Uvarint("version")
	d.Byte("kind")
	body := d.Bytes(d.Uvarint("body length"), "body")

	// Walk the record to each index site, noting its offset and the bytes
	// that replace the uvarint there.
	type site struct {
		at   int
		repl []byte
	}
	sites := map[string]site{}
	note := func(what string, repl ...uint64) {
		if _, ok := sites[what]; !ok {
			var b []byte
			for _, u := range repl {
				b = binary.AppendUvarint(b, u)
			}
			sites[what] = site{d.Pos(), b}
		}
		d.Uvarint(what)
	}
	d = wire.NewDecoder(body)
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		f.Fatal(err)
	}
	d.Uvarint("function address")
	d.String("function name")
	d.String("return symbol")
	d.String("entry")
	nTrees := int(d.Uvarint("trees"))
	for i := 0; i < nTrees; i++ {
		for n := d.Uvarint("regions"); n > 0; n-- {
			note("region expression", uint64(len(nodes)))
			d.Uvarint("size")
		}
		at := d.Pos()
		n := d.Uvarint("kids")
		if i == 0 {
			sites["subtree"] = site{at, slices.Concat(binary.AppendUvarint(nil, n+1), binary.AppendUvarint(nil, 0))}
		}
		for ; n > 0; n-- {
			d.Uvarint("kid")
		}
	}
	nForests := int(d.Uvarint("forests"))
	for i := 0; i < nForests; i++ {
		for n := d.Uvarint("forest trees"); n > 0; n-- {
			note("forest tree", uint64(nTrees))
		}
	}
	nVertices := int(d.Uvarint("vertices"))
	for i := 0; i < nVertices; i++ {
		d.String("id")
		d.Uvarint("addr")
		if d.Byte("has state") == 0 {
			continue
		}
		for _, per := range []uint64{2, 2} { // register, then flag clauses
			for n := d.Uvarint("clauses") * per; n > 0; n-- {
				d.Uvarint("clause field")
			}
		}
		if d.Byte("has cmp") == 1 {
			for j := 0; j < 4; j++ {
				d.Uvarint("cmp field")
			}
		}
		for n := d.Uvarint("memory clauses") * 3; n > 0; n-- {
			d.Uvarint("memory field")
		}
		for n := d.Uvarint("range clauses"); n > 0; n-- {
			d.Uvarint("range expression")
			d.Uint64("lo")
			d.Uint64("hi")
		}
		note("state forest", uint64(nForests))
	}
	d.Uvarint("edges")
	note("edge source", uint64(nVertices)+1)
	if err := d.Err(); err != nil {
		f.Fatal(err)
	}
	if len(sites) != 5 {
		f.Fatalf("found %d of the 5 index sites", len(sites))
	}

	out := map[string][]byte{}
	for what, s := range sites {
		_, n := binary.Uvarint(body[s.at:])
		edited := slices.Concat(body[:s.at], s.repl, body[s.at+n:])
		file := []byte(hgstore.Magic)
		file = binary.AppendUvarint(file, hgstore.Version)
		file = append(file, 'G')
		file = wire.AppendBytes(file, edited)
		out[what] = wire.AppendUint64(file, hgstore.PayloadChecksum(edited))
	}
	return out
}
