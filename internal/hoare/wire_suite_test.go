package hoare_test

// Properties of the binary graph record over real lifted graphs: the
// graphs of CoreUtilsSuite(0.17) re-encode byte-identically after a
// decode, the decoded vertices share memory forests exactly where the
// lifted ones were memmodel.SameOrdered — the sharing the record's forest
// table exists to keep — and a decode allocates per graph, not per
// vertex, without letting one vertex's clauses reach another's.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/wire"
	"repro/internal/x86"
)

// suiteGraph is one lifted graph with the image it was lifted from.
type suiteGraph struct {
	g   *hoare.Graph
	img *image.Image
}

func liftSuite(t *testing.T) []suiteGraph {
	t.Helper()
	cus, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	var out []suiteGraph
	for _, cu := range cus {
		res := core.New(cu.Image, core.DefaultConfig()).LiftBinaryCtx(context.Background(), cu.Name)
		for _, fr := range res.Funcs {
			if fr.Graph != nil && fr.Graph.EntryID != "" {
				out = append(out, suiteGraph{fr.Graph, cu.Image})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no lifted graphs")
	}
	return out
}

// encode runs the collect-then-append protocol of one graph.
func encode(g *hoare.Graph) []byte {
	t := expr.NewTable()
	hoare.CollectWireExprs(t, g)
	return hoare.AppendWire(expr.AppendTable(nil, t), t, g)
}

func decode(t *testing.T, data []byte, img *image.Image) *hoare.Graph {
	t.Helper()
	d := wire.NewDecoder(data)
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hoare.DecodeWire(d, nodes, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rest()) != 0 {
		t.Fatalf("%d trailing bytes", len(d.Rest()))
	}
	return g
}

func TestWireSuiteRoundTripAndSharing(t *testing.T) {
	shared := 0
	for _, sg := range liftSuite(t) {
		data := encode(sg.g)
		got := decode(t, data, sg.img)
		if again := encode(got); !bytes.Equal(data, again) {
			t.Fatalf("%s: decode then encode is not the byte identity", sg.g.FuncName)
		}

		// Group the lifted vertices into SameOrdered classes; every
		// member's decoded forest must be the class's one slice, and
		// different classes must not share one.
		type class struct {
			lifted  memmodel.Forest
			decoded memmodel.Forest
		}
		var classes []*class
		for _, v := range sg.g.SortedVertices() {
			if v.State == nil || len(v.State.Mem) == 0 {
				continue
			}
			dec := got.Vertices[v.ID].State.Mem
			var c *class
			for _, k := range classes {
				if memmodel.SameOrdered(k.lifted, v.State.Mem) {
					c = k
					break
				}
			}
			if c == nil {
				for _, k := range classes {
					if &k.decoded[0] == &dec[0] {
						t.Fatalf("%s: vertex %s shares a forest with a vertex whose lifted forest differs", sg.g.FuncName, v.ID)
					}
				}
				classes = append(classes, &class{v.State.Mem, dec})
				continue
			}
			if &c.decoded[0] != &dec[0] || len(c.decoded) != len(dec) {
				t.Fatalf("%s: vertex %s: SameOrdered lifted forests decoded to different forests", sg.g.FuncName, v.ID)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two vertices share a forest: the test checks nothing")
	}
}

// TestDecodeWireAllocatesPerGraph counts what decoding each suite graph
// allocates (testing.AllocsPerRun). Its vertices, states, predicates,
// comparisons and clause lists are cut from per-record slabs, so what a
// decode allocates per vertex is the vertex's ID and the operands of its
// instruction. Besides those it allocates the memory-model tables (a
// tree, its regions and its kids; a forest), the text of each annotation,
// obligation and assumption, and a few dozen objects per graph: maps,
// slabs and the graph itself.
func TestDecodeWireAllocatesPerGraph(t *testing.T) {
	const perGraph = 64
	for _, sg := range liftSuite(t) {
		d := wire.NewDecoder(encode(sg.g))
		nodes, err := expr.DecodeTable(d)
		if err != nil {
			t.Fatal(err)
		}
		record := d.Rest()
		var g *hoare.Graph
		allocs := testing.AllocsPerRun(3, func() {
			if g, err = hoare.DecodeWire(wire.NewDecoder(record), nodes, sg.img); err != nil {
				t.Fatal(err)
			}
		})
		trees, forests := modelObjects(g)
		texts := len(g.Annotations) + len(g.Obligations) + len(g.Assumptions)
		bound := len(g.Vertices) + len(g.Instrs) + 3*trees + forests + texts + perGraph
		if int(allocs) > bound {
			t.Errorf("%s: decoding %d vertices, %d instructions, %d trees and %d forests allocates %.0f objects, want at most %d",
				g.FuncName, len(g.Vertices), len(g.Instrs), trees, forests, allocs, bound)
		}
	}
}

// modelObjects counts the distinct memory-model trees and forests that a
// decoded graph's vertices name: one per table entry of its record.
func modelObjects(g *hoare.Graph) (trees, forests int) {
	seenTree := map[*memmodel.Tree]bool{}
	seenForest := map[**memmodel.Tree]bool{} // a forest by its backing array
	var walk func(f memmodel.Forest)
	walk = func(f memmodel.Forest) {
		for _, tr := range f {
			if !seenTree[tr] {
				seenTree[tr] = true
				walk(tr.Kids)
			}
		}
	}
	for _, v := range g.Vertices {
		if v.State == nil || len(v.State.Mem) == 0 {
			continue
		}
		seenForest[&v.State.Mem[0]] = true
		walk(v.State.Mem)
	}
	return len(seenTree), len(seenForest)
}

// TestDecodedPredicatesStayApart writes a memory clause, an interval
// clause and a register through a clone of every decoded vertex's
// predicate. A decoded graph's clause lists are runs of shared slabs,
// each capped at its length, so no write may reach another vertex's
// clauses, the cloned vertex's own, or the graph's .hg text.
func TestDecodedPredicatesStayApart(t *testing.T) {
	addr, val := expr.V("probe_addr"), expr.V("probe_val")
	idx, rax := expr.V("probe_idx"), expr.V("probe_rax")
	for _, sg := range liftSuite(t) {
		g := decode(t, encode(sg.g), sg.img)
		want := hoare.Marshal(g)
		keys := map[hoare.VertexID]string{}
		for id, v := range g.Vertices {
			if v.State != nil {
				keys[id] = v.State.Pred.Key()
			}
		}
		for _, v := range g.SortedVertices() {
			if v.State == nil {
				continue
			}
			q := v.State.Pred.Clone()
			q.WriteMem(addr, 8, val)
			q.AddRange(idx, pred.Range{Lo: 1, Hi: 2})
			q.SetReg(x86.RAX, rax)
			if got, ok := q.ReadMem(addr, 8); !ok || got != val || q.Reg(x86.RAX) != rax || q.Key() == keys[v.ID] {
				t.Fatalf("%s: vertex %s: the writes did not reach the clone", g.FuncName, v.ID)
			}
		}
		for id, k := range keys {
			if got := g.Vertices[id].State.Pred.Key(); got != k {
				t.Errorf("%s: vertex %s changed under writes to clones:\n%s\nwas\n%s", g.FuncName, id, got, k)
			}
		}
		if !bytes.Equal(hoare.Marshal(g), want) {
			t.Errorf("%s: the graph's text changed under writes to clones", g.FuncName)
		}
	}
}
