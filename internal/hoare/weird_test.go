package hoare_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/internal/x86"
)

// bruteWeird is the definition WeirdAddresses implements: every address
// strictly inside some other instruction, in ascending order.
func bruteWeird(g *hoare.Graph) []uint64 {
	var out []uint64
	for addr := range g.Instrs {
		for a, inst := range g.Instrs {
			if addr > a && addr < a+uint64(inst.Len) {
				out = append(out, addr)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestWeirdAddressesMatchesDefinition compares the sweep with the
// definition on random instruction maps, dense enough that instructions
// overlap, nest and abut, and on the lifted Section 2 weird-edge graph.
func TestWeirdAddressesMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		g := hoare.NewGraph(0x1000, "f", "S_1000")
		span := 1 + r.Intn(64)
		for n := r.Intn(24); n > 0; n-- {
			a := 0x1000 + uint64(r.Intn(span))
			g.Instrs[a] = x86.Inst{Addr: a, Len: 1 + r.Intn(15)}
		}
		if got, want := g.WeirdAddresses(), bruteWeird(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d: WeirdAddresses = %#x, definition %#x", trial, got, want)
		}
	}

	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	fr := core.New(s.Image, core.DefaultConfig()).LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	if fr.Graph == nil {
		t.Fatalf("%s: no graph", s.Name)
	}
	got, want := fr.Graph.WeirdAddresses(), bruteWeird(fr.Graph)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("weird-edge graph: WeirdAddresses = %#x, definition %#x", got, want)
	}
}
