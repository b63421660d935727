package hoare

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/wire"
	"repro/internal/x86"
)

// decoratedGraph is sampleGraph carrying every clause kind the record
// serializes: registers, flags, a comparison descriptor, memory entries,
// interval clauses, model regions, annotations, obligations, assumptions.
func decoratedGraph() *Graph {
	g := sampleGraph()
	v := g.Vertices["401000"]
	v.State.Pred.SetCmp(&pred.Cmp{Kind: pred.CmpSub,
		Lhs: expr.V("rdi0"), Rhs: expr.Word(7), Size: 8})
	v.State.Pred.SetFlag(x86.CF, expr.Word(1)) // after SetCmp, which clears flags
	v.State.Pred.AddRange(expr.V("idx"), pred.Range{Lo: 1, Hi: 9})
	g.Annotate(0x401005, AnnUnresolvedCall, "some callback")
	g.Obligations = append(g.Obligations, "@1 : f(rdi := rsp0 - 0x8) MUST PRESERVE [x]")
	g.Assumptions = append(g.Assumptions, "@2 : [a, 8] ASSUMED SEPARATE FROM [b, 8]")
	return g
}

// encodeGraph runs the collect-then-append protocol of one graph,
// returning the table bytes and record bytes separately.
func encodeGraph(g *Graph) (table, record []byte) {
	t := expr.NewTable()
	CollectWireExprs(t, g)
	return expr.AppendTable(nil, t), AppendWire(nil, t, g)
}

func TestWireRoundTrip(t *testing.T) {
	im := buildTestImage(t)
	g := decoratedGraph()
	table, record := encodeGraph(g)

	d := wire.NewDecoder(append(append([]byte(nil), table...), record...))
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeWire(d, nodes, im)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rest()) != 0 {
		t.Fatalf("trailing bytes: %d", len(d.Rest()))
	}

	if loaded.FuncAddr != g.FuncAddr || loaded.FuncName != g.FuncName ||
		loaded.RetSym != g.RetSym || loaded.EntryID != g.EntryID {
		t.Fatalf("header mismatch: %+v", loaded)
	}
	if len(loaded.Vertices) != len(g.Vertices) || len(loaded.Edges) != len(g.Edges) {
		t.Fatalf("shape: %d/%d vertices, %d/%d edges",
			len(loaded.Vertices), len(g.Vertices), len(loaded.Edges), len(g.Edges))
	}
	for id, v := range g.Vertices {
		lv := loaded.Vertices[id]
		if lv == nil {
			t.Fatalf("vertex %s lost", id)
		}
		if (lv.State == nil) != (v.State == nil) {
			t.Fatalf("vertex %s state presence", id)
		}
		if v.State == nil {
			continue
		}
		if lv.State.Pred.Key() != v.State.Pred.Key() {
			t.Fatalf("vertex %s predicate:\n%s\nvs\n%s", id, lv.State.Pred.Key(), v.State.Pred.Key())
		}
		if lv.State.Mem.Key() != v.State.Mem.Key() {
			t.Fatalf("vertex %s model: %s vs %s", id, lv.State.Mem, v.State.Mem)
		}
		// Interned pointer identity, not just textual equality: the
		// decoded register values are the same canonical nodes.
		for _, r := range x86.GPRs {
			if e := v.State.Pred.Reg(r); e != nil && lv.State.Pred.Reg(r) != e {
				t.Fatalf("vertex %s register %s not pointer-identical", id, r)
			}
		}
	}
	if len(loaded.Annotations) != 1 || len(loaded.Obligations) != 1 || len(loaded.Assumptions) != 1 {
		t.Fatalf("metadata: %d/%d/%d",
			len(loaded.Annotations), len(loaded.Obligations), len(loaded.Assumptions))
	}
	// Instructions were re-fetched from the image, not deserialized.
	if _, ok := loaded.Instrs[0x401000]; !ok {
		t.Fatal("edge instruction not re-fetched")
	}

	// Serialize → deserialize → re-serialize is the byte identity, for
	// the table and the record both.
	table2, record2 := encodeGraph(loaded)
	if !bytes.Equal(table, table2) {
		t.Fatal("expression table re-serialization differs")
	}
	if !bytes.Equal(record, record2) {
		t.Fatal("graph record re-serialization differs")
	}
}

func TestDecodeWireRejectsCorruption(t *testing.T) {
	im := buildTestImage(t)
	g := decoratedGraph()
	table, record := encodeGraph(g)
	full := append(append([]byte(nil), table...), record...)

	decode := func(data []byte) error {
		d := wire.NewDecoder(data)
		nodes, err := expr.DecodeTable(d)
		if err != nil {
			return err
		}
		_, err = DecodeWire(d, nodes, im)
		return err
	}
	if err := decode(full); err != nil {
		t.Fatalf("pristine input: %v", err)
	}
	// Truncating anywhere inside the record must error, never panic.
	for n := len(table); n < len(full); n++ {
		if err := decode(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodeWireRejectsUnmappedInstruction(t *testing.T) {
	im := buildTestImage(t)
	g := sampleGraph()
	// Point an edge at an address outside the image's text section.
	g.Instrs[0xdead] = x86.Inst{Addr: 0xdead, Mn: x86.RET}
	g.AddEdge(Edge{From: "401005", To: HaltID, Addr: 0xdead, Kind: sem.KHalt})
	g.Vertices[HaltID] = &Vertex{ID: HaltID}

	table, record := encodeGraph(g)
	d := wire.NewDecoder(append(table, record...))
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire(d, nodes, im); err == nil {
		t.Fatal("edge at unmapped address accepted")
	}
}

// TestDecodeWireRejectsNonCanonicalClauses edits a record's memory and
// interval clause lists out of canonical order: swapping two clauses or
// repeating one must fail the decode, since a decoded predicate installs
// each list as read.
func TestDecodeWireRejectsNonCanonicalClauses(t *testing.T) {
	im := buildTestImage(t)
	g := sampleGraph()
	p := g.Vertices["401000"].State.Pred
	p.WriteMem(expr.Sub(expr.V("rsp0"), expr.Word(8)), 8, expr.V("rbx0"))
	p.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 3})
	p.AddRange(expr.V("j"), pred.Range{Lo: 1, Hi: 4})
	tab := expr.NewTable()
	CollectWireExprs(tab, g)
	table, record := expr.AppendTable(nil, tab), AppendWire(nil, tab, g)
	idx := func(e *expr.Expr) uint64 { return uint64(tab.Index(e)) }

	// The encoded clauses, in record order.
	var mems, ranges [][]byte
	p.MemEntries(func(e pred.MemEntry) {
		b := wire.AppendUvarint(nil, idx(e.Addr))
		b = wire.AppendUvarint(b, uint64(e.Size))
		mems = append(mems, wire.AppendUvarint(b, idx(e.Val)))
	})
	p.Ranges(func(e *expr.Expr, r pred.Range) {
		b := wire.AppendUvarint(nil, idx(e))
		b = wire.AppendUint64(b, r.Lo)
		ranges = append(ranges, wire.AppendUint64(b, r.Hi))
	})
	if len(mems) != 2 || len(ranges) != 2 {
		t.Fatalf("fixture has %d memory and %d interval clauses, want 2 each", len(mems), len(ranges))
	}

	decode := func(rec []byte) error {
		d := wire.NewDecoder(append(append([]byte(nil), table...), rec...))
		nodes, err := expr.DecodeTable(d)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeWire(d, nodes, im)
		return err
	}
	if err := decode(record); err != nil {
		t.Fatalf("pristine record: %v", err)
	}
	for _, tc := range []struct {
		name   string
		list   [][]byte
		edited []byte
	}{
		{"memory swapped", mems, slices.Concat(mems[1], mems[0])},
		{"memory repeated", mems, slices.Concat(mems[0], mems[0])},
		{"interval swapped", ranges, slices.Concat(ranges[1], ranges[0])},
		{"interval repeated", ranges, slices.Concat(ranges[0], ranges[0])},
	} {
		list := slices.Concat(wire.AppendUvarint(nil, 2), tc.list[0], tc.list[1])
		if n := bytes.Count(record, list); n != 1 {
			t.Fatalf("%s: clause list found %d times in the record", tc.name, n)
		}
		at := bytes.Index(record, list)
		edited := slices.Concat(record[:at], wire.AppendUvarint(nil, 2), tc.edited, record[at+len(list):])
		if err := decode(edited); err == nil {
			t.Errorf("%s: record decoded without error", tc.name)
		}
	}
}

// handRecord assembles a graph record for the test image against a
// one-node expression table: a header with entry vertex "401000", the
// given tree and forest tables (each entry an index list; a tree holds
// one region [rsp0, 8] before its kid list), one vertex at 0x401000 whose
// empty state names forest vertexForest, and one mov edge between the
// given vertex references (index+1; 0 is not used here).
func handRecord(trees, forests [][]uint64, vertexForest, from, to uint64) []byte {
	b := wire.AppendUvarint(nil, 0x401000)
	b = wire.AppendString(b, "f")
	b = wire.AppendString(b, "S_401000")
	b = wire.AppendString(b, "401000")
	b = wire.AppendUvarint(b, uint64(len(trees)))
	for _, kids := range trees {
		b = wire.AppendUvarint(b, 1)
		b = wire.AppendUvarint(b, 0) // region address: node 0
		b = wire.AppendUvarint(b, 8)
		b = appendList(b, kids)
	}
	b = wire.AppendUvarint(b, uint64(len(forests)))
	for _, f := range forests {
		b = appendList(b, f)
	}
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendString(b, "401000")
	b = wire.AppendUvarint(b, 0x401000)
	b = append(b, 1, 0, 0, 0, 0, 0) // has-state, no reg/flag/cmp/mem/range clause
	b = wire.AppendUvarint(b, vertexForest)
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendUvarint(b, from)
	b = wire.AppendUvarint(b, to)
	b = wire.AppendUvarint(b, uint64(sem.KFall))
	b = wire.AppendUvarint(b, 0x401000)
	b = wire.AppendString(b, "")
	return append(b, 0, 0, 0) // no annotation, obligation or assumption
}

// appendList appends a counted list of uvarints.
func appendList(b []byte, list []uint64) []byte {
	b = wire.AppendUvarint(b, uint64(len(list)))
	for _, u := range list {
		b = wire.AppendUvarint(b, u)
	}
	return b
}

// TestDecodeWireRejectsBadModelIndices feeds records whose tree, forest
// or edge-vertex indices are out of range, or whose trees or forests name
// one tree twice (a record that could expand exponentially): each must
// fail the decode with an error, never a panic or an index into the wrong
// table.
func TestDecodeWireRejectsBadModelIndices(t *testing.T) {
	im := buildTestImage(t)
	nodes := []*expr.Expr{expr.V("rsp0")}
	decode := func(rec []byte) (g *Graph, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked: %v", r)
			}
		}()
		return DecodeWire(wire.NewDecoder(rec), nodes, im)
	}

	// The well-formed record: tree 1 encloses tree 0, and the vertex's
	// forest holds tree 1.
	g, err := decode(handRecord([][]uint64{nil, {0}}, [][]uint64{{1}}, 0, 1, 1))
	if err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	mem := g.Vertices["401000"].State.Mem
	if len(mem) != 1 || len(mem[0].Kids) != 1 || len(mem[0].Kids[0].Kids) != 0 {
		t.Fatalf("well-formed record decoded to %s", mem)
	}

	for _, tc := range []struct {
		name, want string
		rec        []byte
	}{
		{"subtree is its own tree", "subtree index 0 out of range",
			handRecord([][]uint64{{0}}, [][]uint64{{0}}, 0, 1, 1)},
		{"subtree is a later tree", "subtree index 1 out of range",
			handRecord([][]uint64{{1}, nil}, [][]uint64{{0}}, 0, 1, 1)},
		{"subtree named twice", "tree 1 expands to 3 nodes",
			handRecord([][]uint64{nil, {0, 0}}, [][]uint64{{1}}, 0, 1, 1)},
		{"forest names a tree twice", "forest 0 expands to 2 nodes",
			handRecord([][]uint64{nil}, [][]uint64{{0, 0}}, 0, 1, 1)},
		{"forest names a missing tree", "forest tree index 1 out of range",
			handRecord([][]uint64{nil}, [][]uint64{{1}}, 0, 1, 1)},
		{"vertex names a missing forest", "forest index 1 out of range",
			handRecord([][]uint64{nil}, [][]uint64{{0}}, 1, 1, 1)},
		{"edge source out of range", "edge from vertex index 1 out of range",
			handRecord([][]uint64{nil}, [][]uint64{{0}}, 0, 2, 1)},
		{"edge target out of range", "edge to vertex index 6 out of range",
			handRecord([][]uint64{nil}, [][]uint64{{0}}, 0, 1, 7)},
	} {
		if _, err := decode(tc.rec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWireEdgeToMissingVertex round-trips a graph with an edge whose
// target was never made a vertex (an abandoned lift leaves such edges):
// the record names it inline, and an inline name that is a vertex is
// rejected as non-canonical.
func TestWireEdgeToMissingVertex(t *testing.T) {
	im := buildTestImage(t)
	g := sampleGraph()
	delete(g.Vertices, ExitID)
	table, record := encodeGraph(g)
	d := wire.NewDecoder(append(append([]byte(nil), table...), record...))
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeWire(d, nodes, im)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasEdge("401005", ExitID) || loaded.Vertices[ExitID] != nil {
		t.Fatalf("edge to the missing exit vertex lost:\n%s", Marshal(loaded))
	}
	if _, again := encodeGraph(loaded); !bytes.Equal(record, again) {
		t.Fatal("record re-serialization differs")
	}

	// Name a real vertex inline: 0 then its ID, in place of its index.
	// The first edge runs from the first vertex (ref 1) to the second.
	edge := wire.AppendUvarint(nil, 2) // edge count
	edge = append(edge, 1, 2)
	edge = wire.AppendUvarint(edge, uint64(sem.KFall))
	edge = wire.AppendUvarint(edge, 0x401000)
	if n := bytes.Count(record, edge); n != 1 {
		t.Fatalf("first edge found %d times in the record", n)
	}
	at := bytes.Index(record, edge) + 1
	inline := wire.AppendString([]byte{0}, "401000")
	edited := slices.Concat(record[:at], inline, record[at+1:])
	d = wire.NewDecoder(append(append([]byte(nil), table...), edited...))
	if nodes, err = expr.DecodeTable(d); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire(d, nodes, im); err == nil || !strings.Contains(err.Error(), "not named by index") {
		t.Fatalf("an inline name of a vertex: %v, want a non-canonical error", err)
	}
}

// TestDecodeWireFetchesVertexInstructions decodes graphs with a vertex no
// edge leaves, as a failed lift's fatal step leaves one. Its instruction
// must come back in Instrs. An address that does not fetch loads only
// when the graph carries a fetch-error annotation there, as the lifter
// writes when its own fetch fails; any other annotation does not excuse it.
func TestDecodeWireFetchesVertexInstructions(t *testing.T) {
	im := buildTestImage(t)
	decode := func(g *Graph) (*Graph, error) {
		table, record := encodeGraph(g)
		d := wire.NewDecoder(append(table, record...))
		nodes, err := expr.DecodeTable(d)
		if err != nil {
			t.Fatal(err)
		}
		return DecodeWire(d, nodes, im)
	}

	g := sampleGraph()
	g.Vertices["401007"] = &Vertex{ID: "401007", Addr: 0x401007, State: sem.NewState()}
	loaded, err := decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if inst, ok := loaded.Instrs[0x401007]; !ok || inst.Mn != x86.RET {
		t.Fatalf("edgeless vertex at 0x401007: instruction %v (%t), want ret", inst, ok)
	}

	for _, c := range []struct {
		anns []AnnKind // annotated at the vertex's address
		want bool      // loads
	}{{nil, false}, {[]AnnKind{AnnUnresolvedJump}, false}, {[]AnnKind{AnnFetchError}, true}} {
		g := sampleGraph()
		g.Vertices["dead"] = &Vertex{ID: "dead", Addr: 0xdead, State: sem.NewState()}
		for _, k := range c.anns {
			g.Annotate(0xdead, k, "fetch at 0xdead")
		}
		loaded, err := decode(g)
		if got := err == nil; got != c.want {
			t.Fatalf("unfetchable vertex annotated %v: load error %v, want loads=%t", c.anns, err, c.want)
		}
		if err == nil {
			if _, ok := loaded.Instrs[0xdead]; ok || len(loaded.Instrs) != 2 {
				t.Fatalf("unfetchable vertex: instructions %v", loaded.Disasm())
			}
		} else if !strings.Contains(err.Error(), "vertex dead instruction") {
			t.Fatalf("unfetchable vertex: error %v, want one naming the vertex", err)
		}
	}
}

// listHeader is the start of a listRecord, up to its vertex count.
func listHeader() []byte {
	b := wire.AppendUvarint(nil, 0x401000)
	b = wire.AppendString(b, "f")
	b = wire.AppendString(b, "S_401000")
	b = wire.AppendString(b, "401000")
	return append(b, 0, 1, 0) // no tree; one forest, holding no tree
}

// listRecord assembles a graph record for the test image against the
// table of listNodes: entry vertex "401000", one empty forest, and the
// given vertex and edge lists, each entry already encoded.
func listRecord(vertices, edges [][]byte) []byte {
	b := wire.AppendUvarint(listHeader(), uint64(len(vertices)))
	b = slices.Concat(append([][]byte{b}, vertices...)...)
	b = wire.AppendUvarint(b, uint64(len(edges)))
	b = slices.Concat(append([][]byte{b}, edges...)...)
	return append(b, 0, 0, 0) // no annotation, obligation or assumption
}

// listNodes is the expression table of listRecord: node 0 is a, node 1 b.
var listNodes = []*expr.Expr{expr.V("a"), expr.V("b")}

// stateVertex encodes a vertex whose state holds only rax = node rax.
func stateVertex(id VertexID, addr, rax uint64) []byte {
	b := wire.AppendString(nil, string(id))
	b = wire.AppendUvarint(b, addr)
	b = append(b, 1, 1, 0) // has-state, one register clause: rax (GPR 0)
	b = wire.AppendUvarint(b, rax)
	return append(b, 0, 0, 0, 0, 0) // no flag/cmp/mem/range clause; forest 0
}

// fallEdge encodes a fall-through edge between vertex references
// (index+1) at the instruction at addr.
func fallEdge(from, to, addr uint64) []byte {
	b := wire.AppendUvarint(nil, from)
	b = wire.AppendUvarint(b, to)
	b = wire.AppendUvarint(b, uint64(sem.KFall))
	b = wire.AppendUvarint(b, addr)
	return wire.AppendString(b, "")
}

// TestDecodeWireRejectsNonCanonicalLists feeds hand records whose vertex
// or edge list names an item twice or lists two out of order. A repeated
// vertex used to decode to one vertex holding the later state, and a
// repeated edge to one edge; each must now fail the decode, as a store
// miss or a graph-file load error.
func TestDecodeWireRejectsNonCanonicalLists(t *testing.T) {
	im := buildTestImage(t)
	decode := func(rec []byte) (*Graph, error) {
		return DecodeWire(wire.NewDecoder(rec), listNodes, im)
	}
	v1000a := stateVertex("401000", 0x401000, 0)
	v1000b := stateVertex("401000", 0x401000, 1)
	v1005 := stateVertex("401005", 0x401005, 0)

	g, err := decode(listRecord([][]byte{v1000a, v1005},
		[][]byte{fallEdge(1, 2, 0x401000), fallEdge(2, 1, 0x401005)}))
	if err != nil {
		t.Fatalf("canonical record: %v", err)
	}
	if len(g.Vertices) != 2 || len(g.Edges) != 2 || g.Vertices["401000"].State.Pred.Reg(x86.RAX) != listNodes[0] {
		t.Fatalf("canonical record decoded to:\n%s", Marshal(g))
	}

	for _, tc := range []struct {
		name, want      string
		vertices, edges [][]byte
	}{
		{"vertex repeated", "out of canonical order",
			[][]byte{v1000a, v1000b}, nil},
		{"vertices swapped", "out of canonical order",
			[][]byte{v1005, v1000a}, nil},
		{"vertex ID repeated at another address", "named twice",
			[][]byte{v1000a, stateVertex("401000", 0x401005, 1)}, nil},
		{"edge repeated", "named twice",
			[][]byte{v1000a, v1005}, [][]byte{fallEdge(1, 2, 0x401000), fallEdge(1, 2, 0x401000)}},
		{"edge repeated around another source", "named twice",
			[][]byte{v1000a, v1005}, [][]byte{fallEdge(2, 2, 0x401000), fallEdge(1, 2, 0x401000), fallEdge(2, 2, 0x401000)}},
		{"edges swapped", "out of canonical order",
			[][]byte{v1000a, v1005}, [][]byte{fallEdge(2, 1, 0x401005), fallEdge(1, 2, 0x401000)}},
		{"edge targets swapped", "out of canonical order",
			[][]byte{v1000a, v1005}, [][]byte{fallEdge(1, 2, 0x401000), fallEdge(1, 1, 0x401000)}},
	} {
		g, err := decode(listRecord(tc.vertices, tc.edges))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			got := "no graph"
			if g != nil {
				got = string(Marshal(g))
			}
			t.Errorf("%s: decode error %v, want %q; decoded:\n%s", tc.name, err, tc.want, got)
		}
	}
}

// TestDecodeWireSortsEdgeTies feeds a record whose edges that share an
// instruction and a target are listed in descending source order, as a
// build whose SortedEdges did not break that tie could write them. The
// record must decode, with the run in source order, to the graph its
// canonical record decodes to.
func TestDecodeWireSortsEdgeTies(t *testing.T) {
	im := buildTestImage(t)
	vertices := [][]byte{stateVertex("401000", 0x401000, 0), stateVertex("401005", 0x401005, 1)}
	tie := func(sources ...uint64) [][]byte {
		var edges [][]byte
		for _, from := range sources {
			edges = append(edges, fallEdge(from, 2, 0x401000))
		}
		return append(edges, fallEdge(2, 1, 0x401005))
	}
	want, err := DecodeWire(wire.NewDecoder(listRecord(vertices, tie(1, 2))), listNodes, im)
	if err != nil {
		t.Fatalf("canonical record: %v", err)
	}
	got, err := DecodeWire(wire.NewDecoder(listRecord(vertices, tie(2, 1))), listNodes, im)
	if err != nil {
		t.Fatalf("record with a tie in descending source order: %v", err)
	}
	keys := func(g *Graph) (out []edgeKey) {
		for _, e := range g.Edges {
			out = append(out, edgeKey{From: e.From, To: e.To, Addr: e.Addr})
		}
		return out
	}
	if !slices.Equal(keys(got), keys(want)) || !bytes.Equal(Marshal(got), Marshal(want)) {
		t.Fatalf("decoded edges %v, want %v", keys(got), keys(want))
	}
}

// TestSortedEdgesBreaksTiesOnSource builds one graph twice, adding two
// edges that share an instruction and a target (two code-pointer variants
// of one vertex stepping to one vertex) in either order. Both must list
// the edges alike, in the .hg text and in the record, and the record must
// decode: SortedEdges is the record's edge order, so it must be total.
func TestSortedEdgesBreaksTiesOnSource(t *testing.T) {
	im := buildTestImage(t)
	build := func(swap bool) *Graph {
		sample := sampleGraph()
		g := NewGraph(sample.FuncAddr, sample.FuncName, sample.RetSym)
		g.EntryID, g.Vertices, g.Instrs = sample.EntryID, sample.Vertices, sample.Instrs
		g.Vertices["401000_v"] = &Vertex{ID: "401000_v", Addr: 0x401000, State: g.Vertices["401000"].State.Clone()}
		a := Edge{From: "401000", To: "401005", Addr: 0x401000, Kind: sem.KFall}
		b := Edge{From: "401000_v", To: "401005", Addr: 0x401000, Kind: sem.KFall}
		if swap {
			a, b = b, a
		}
		g.AddEdge(a)
		g.AddEdge(b)
		g.AddEdge(Edge{From: "401005", To: ExitID, Addr: 0x401005, Kind: sem.KRet})
		return g
	}
	g, swapped := build(false), build(true)
	if len(g.Edges) != 3 || len(swapped.Edges) != 3 {
		t.Fatalf("built %d and %d edges, want 3", len(g.Edges), len(swapped.Edges))
	}
	if !bytes.Equal(Marshal(g), Marshal(swapped)) {
		t.Fatalf("edge order follows insertion order:\n%s\nvs\n%s", Marshal(g), Marshal(swapped))
	}
	table, record := encodeGraph(swapped)
	if _, again := encodeGraph(g); !bytes.Equal(record, again) {
		t.Fatal("records differ with insertion order")
	}
	d := wire.NewDecoder(append(table, record...))
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeWire(d, nodes, im)
	if err != nil {
		t.Fatalf("record of a graph with an edge tie: %v", err)
	}
	if !bytes.Equal(Marshal(loaded), Marshal(g)) {
		t.Fatalf("decoded graph differs:\n%s\nvs\n%s", Marshal(loaded), Marshal(g))
	}
}

// TestDecodeWireBoundsClaimedCounts feeds records whose vertex or edge
// count claims as many items as bytes follow, which the count check
// allows (every item takes at least one byte), over filler that fails to
// decode. What the decoder sets aside for a claimed count is bounded by
// the fewest bytes an item takes, so a decode allocates a few dozen bytes
// per input byte, not the size of a vertex or an edge.
func TestDecodeWireBoundsClaimedCounts(t *testing.T) {
	im := buildTestImage(t)
	const claimed = 100_000
	filler := bytes.Repeat([]byte{0xff}, claimed) // no uvarint ends in it
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"vertices", slices.Concat(listHeader(), wire.AppendUvarint(nil, claimed), filler)},
		{"edges", slices.Concat(listHeader(), []byte{1}, stateVertex("401000", 0x401000, 0),
			wire.AppendUvarint(nil, claimed), filler)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeWire(wire.NewDecoder(tc.rec), listNodes, im)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: filler decoded", tc.name)
		}
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tc.rec)); perByte > 64 {
			t.Errorf("%s: decoding a %d-byte record allocates %.0f bytes per input byte", tc.name, len(tc.rec), perByte)
		}
	}
}
