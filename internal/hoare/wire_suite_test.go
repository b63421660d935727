package hoare_test

// Properties of the binary graph record over real lifted graphs: the
// graphs of CoreUtilsSuite(0.17) re-encode byte-identically after a
// decode, and the decoded vertices share memory forests exactly where the
// lifted ones were memmodel.SameOrdered — the sharing the record's forest
// table exists to keep.

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
	"repro/internal/wire"
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
