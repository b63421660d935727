package lift_test

// Step 2 through the front door: lift.Check owns the checker's semantic
// configuration, so these tests pin the options it honours.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/triple"
	"repro/lift"
)

// TestCheckPointerFacts lifts the pathological ptr_ directory with the
// pointer pre-pass and re-checks every lifted graph under the same option:
// Step 2 must reproduce the lift's verdicts, so every theorem is proven.
// Without the recomputed facts several of these graphs fail theorems, so
// this is the path on which Check's configuration matters.
func TestCheckPointerFacts(t *testing.T) {
	dir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sum := lift.Run(ctx, lift.UnitRequests(dir.Units), lift.Jobs(2), lift.PointerFacts())
	checked := 0
	for i, r := range sum.Results {
		if r.Status != core.StatusLifted {
			continue
		}
		rep := lift.Check(ctx, dir.Units[i].Image, r.Func.Graph, lift.Jobs(2), lift.PointerFacts())
		if !rep.AllProven() || rep.Proven == 0 {
			t.Errorf("%s: %d proven, %d failed, %d skipped", r.Name, rep.Proven, rep.Failed, rep.Skipped)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d of %d ptr_ units lifted with facts", checked, len(sum.Results))
	}
}

// TestCheckCancelled checks a graph under an already-cancelled context:
// no theorem is attempted, each reports Skipped on the tracer, and the
// report never claims full verification.
func TestCheckCancelled(t *testing.T) {
	s, err := corpus.Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(context.Background(), lift.Func(s.Name, s.Image, s.FuncAddr))
	if res.Status != core.StatusLifted {
		t.Fatalf("ret2win: %s", res.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ring := obs.NewRing(1 << 10)
	rep := lift.Check(ctx, s.Image, res.Func.Graph, lift.Observe(ring))
	if n := len(rep.Theorems); n == 0 || rep.Skipped != n || rep.Proven+rep.Failed != 0 {
		t.Fatalf("cancelled check: %d theorems, %d proven, %d failed, %d skipped",
			n, rep.Proven, rep.Failed, rep.Skipped)
	}
	if rep.AllProven() {
		t.Fatal("a cancelled check must not claim AllProven")
	}
	skipped := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KTheorem && e.Status == triple.Skipped.String() {
			skipped++
		}
	}
	if skipped != rep.Skipped {
		t.Fatalf("%d skipped theorem events, report has %d", skipped, rep.Skipped)
	}
}
