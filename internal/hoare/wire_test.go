package hoare

import (
	"bytes"
	"slices"
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
	bogus := x86.Inst{Addr: 0xdead, Mn: x86.RET}
	g.Instrs[0xdead] = bogus
	g.AddEdge(Edge{From: "401005", To: HaltID, Inst: bogus, Kind: sem.KHalt})
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
