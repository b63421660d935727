package repro

// Integration tests for the hglint static analyzer through the lift
// facade: lifted scenario graphs pass the analyzer, and the precheck
// hgprove runs ahead of the theorem checker passes on a well-formed lift.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/lift"
)

// TestFacadeLint lifts every scenario through the facade: each lifted
// graph, linted through the run's solver cache, must be free of
// error-severity diagnostics.
func TestFacadeLint(t *testing.T) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]lift.Request, 0, len(scenarios))
	for _, s := range scenarios {
		reqs = append(reqs, lift.Func(s.Name, s.Image, s.FuncAddr))
	}
	sum := lift.Run(context.Background(), reqs, lift.Jobs(2))
	lifted := 0
	for _, r := range sum.Results {
		if r.Status != core.StatusLifted || r.Func == nil {
			continue
		}
		if rep := hglint.Lint(r.Func.Graph, hglint.WithCache(sum.Cache)); rep.HasErrors() {
			t.Errorf("%s:\n%s", r.Name, rep)
		}
		lifted++
	}
	if lifted == 0 {
		t.Fatal("no scenario lifted")
	}
}

// TestVerifyFunctionRunsPrecheck exercises Step 2 end to end the way
// hgprove -func runs it: the lint precheck must pass on a well-formed
// lift and lift.Check must then prove (or assume) every theorem.
func TestVerifyFunctionRunsPrecheck(t *testing.T) {
	s, err := corpus.Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res := lift.One(ctx, lift.Func(s.Name, s.Image, s.FuncAddr))
	if res.Func == nil || res.Func.Graph == nil {
		t.Fatalf("ret2win: %s", res.Status)
	}
	if lrep := hglint.Lint(res.Func.Graph); lrep.HasErrors() {
		t.Fatalf("precheck refused a well-formed lift:\n%s", lrep)
	}
	if rep := lift.Check(ctx, s.Image, res.Func.Graph); !rep.AllProven() || rep.Proven == 0 {
		t.Fatalf("ret2win: %d proven, %d failed, %d skipped", rep.Proven, rep.Failed, rep.Skipped)
	}
}
