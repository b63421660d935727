package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/lift"
)

// TestVerticesOwnTheirStates: the explorer writes a weakening join into
// the vertex's own State and Pred and hands dead work-item states back to
// the machine for reuse, so no two vertices may ever hold the same State
// or Pred object, within a graph or across the graphs of a run. A state
// recycled while a vertex still held it would show up here as a shared
// object (or as a changed graph in lift's TestLiftedGraphsPinned).
func TestVerticesOwnTheirStates(t *testing.T) {
	coreutils, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	ptrDir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		units []*corpus.Unit
	}{
		{"CoreUtilsSuite(0.17)", coreutils},
		{"ptr_", ptrDir.Units},
	} {
		sum := lift.Run(context.Background(), lift.UnitRequests(c.units), lift.Jobs(2))
		graphs := map[*hoare.Graph]bool{}
		add := func(f *core.FuncResult) {
			if f != nil && f.Graph != nil {
				graphs[f.Graph] = true
			}
		}
		for _, r := range sum.Results {
			add(r.Func)
			if r.Binary != nil {
				for _, f := range r.Binary.Funcs {
					add(f)
				}
			}
		}
		states := map[*sem.State]hoare.VertexID{}
		preds := map[*pred.Pred]hoare.VertexID{}
		joined := 0
		for g := range graphs {
			for id, v := range g.Vertices {
				if v.State == nil {
					continue
				}
				if other, ok := states[v.State]; ok {
					t.Fatalf("%s: %s: vertices %s and %s share a State", c.name, g.FuncName, other, id)
				}
				if other, ok := preds[v.State.Pred]; ok {
					t.Fatalf("%s: %s: vertices %s and %s share a Pred", c.name, g.FuncName, other, id)
				}
				states[v.State], preds[v.State.Pred] = id, id
				joined += v.Joins
			}
		}
		if len(graphs) < 4 || joined == 0 {
			t.Fatalf("%s: %d graphs, %d joins: nothing was tested", c.name, len(graphs), joined)
		}
	}
}
