package corpus

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// runPtrDir lifts the ptr_ directory with or without the pointer pre-pass
// (Jobs 1 keeps summaries deterministic; each unit's budget is honoured).
func runPtrDir(t *testing.T, dir *Directory, facts bool) *pipeline.Summary {
	t.Helper()
	var tasks []pipeline.Task
	for _, u := range dir.Units {
		cfg := core.DefaultConfig()
		if u.Budget > 0 {
			cfg.MaxStates = u.Budget
		}
		cfg.PointerFacts = facts
		tasks = append(tasks, pipeline.Task{Name: u.Name, Img: u.Image, Addr: u.FuncAddr, Cfg: &cfg})
	}
	return pipeline.RunCtx(context.Background(), tasks, pipeline.Options{Jobs: 1})
}

// TestPtrPathology pins the directory's double life: without facts the
// units fork and destroy (and the forkbomb times out); with facts the
// fork+destroy totals collapse and the forkbomb lifts inside the same
// budget. This is the in-tree version of the CI ptr-smoke gate.
func TestPtrPathology(t *testing.T) {
	dir, err := PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	off := runPtrDir(t, dir, false)
	on := runPtrDir(t, dir, true)

	for i, u := range dir.Units {
		if got := off.Results[i].Status; got != u.Expect {
			t.Errorf("%s without facts: status %v, want %v", u.Name, got, u.Expect)
		}
		t.Logf("%s: off status=%v steps_forks=%d destroys=%d fallbacks=%d | on status=%v forks=%d destroys=%d fallbacks=%d facthits=%d",
			u.Name,
			off.Results[i].Status, off.Results[i].Stats.Sem.Forks, off.Results[i].Stats.Sem.Destroys, off.Results[i].Stats.Sem.Fallbacks,
			on.Results[i].Status, on.Results[i].Stats.Sem.Forks, on.Results[i].Stats.Sem.Destroys, on.Results[i].Stats.Sem.Fallbacks,
			on.Results[i].Stats.Sem.FactHits)
	}

	// The newly-liftable unit: rejected on budget without facts, lifted
	// with them under the identical budget.
	if off.Results[0].Status != core.StatusTimeout || on.Results[0].Status != core.StatusLifted {
		t.Fatalf("ptr_forkbomb: off=%v on=%v, want timeout/lifted",
			off.Results[0].Status, on.Results[0].Status)
	}
	// Every unit lifted without facts stays lifted with them.
	for i, u := range dir.Units {
		if off.Results[i].Status == core.StatusLifted && on.Results[i].Status != core.StatusLifted {
			t.Errorf("%s: lifted without facts but %v with them", u.Name, on.Results[i].Status)
		}
	}

	offCost := off.Stats.Sem.Forks + off.Stats.Sem.Destroys
	onCost := on.Stats.Sem.Forks + on.Stats.Sem.Destroys
	if onCost*10 > offCost*7 { // ≥ 30% reduction, integer arithmetic
		t.Errorf("fork+destroy: %d without facts, %d with — want ≥30%% reduction", offCost, onCost)
	}
	if off.Stats.Sem.Fallbacks == 0 {
		t.Error("directory must exercise the MaxModels fallback without facts")
	}
	if on.Stats.Sem.FactHits == 0 {
		t.Error("fact table was never consulted")
	}

	// Control unit: identical statistics in both modes (its pairs are all
	// decided or stack-vs-global, so facts must not perturb anything).
	ctl := len(dir.Units) - 1
	if dir.Units[ctl].Name != "ptr_stack_global" {
		t.Fatalf("control unit moved: %s", dir.Units[ctl].Name)
	}
	o, n := off.Results[ctl].Stats, on.Results[ctl].Stats
	if o.Graph != n.Graph || o.Sem.Forks != n.Sem.Forks || o.Sem.Destroys != n.Sem.Destroys {
		t.Errorf("control unit drifted: off %+v/%+v vs on %+v/%+v", o.Graph, o.Sem, n.Graph, n.Sem)
	}
}

// TestPtrPathologyBudgetMargin documents the forkbomb budget's two-sided
// margin so innocent lifter changes that shift step counts fail loudly
// here instead of flaking in CI: the fact-assisted exploration must finish
// comfortably inside the budget, the factless one must exceed it.
func TestPtrPathologyBudgetMargin(t *testing.T) {
	dir, err := PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	fb := dir.Units[0]
	if fb.Name != "ptr_forkbomb" {
		t.Fatalf("forkbomb unit moved: %s", fb.Name)
	}
	on := runPtrDir(t, &Directory{Name: "ptr", Units: []*Unit{fb}}, true)
	steps := on.Results[0].Func.Steps
	if steps*5 > forkbombBudget*4 {
		t.Errorf("fact-assisted forkbomb used %d of %d steps — margin too thin, raise the budget",
			steps, forkbombBudget)
	}
	t.Logf("fact-assisted forkbomb: %d steps of %d budget", steps, forkbombBudget)
}
