package repro

// Integration tests for the hglint static analyzer through the lift
// facade: lifted scenario graphs pass the analyzer, lint reports ride the
// pipeline results, diagnostics ride the trace as lint events, and the
// precheck hgprove runs ahead of the theorem checker passes on a
// well-formed lift.

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/internal/obs"
	"repro/lift"
)

// TestFacadeLint lifts every scenario with lint enabled: each lifted
// graph must carry an error-free report, and diagnostics (if any) must
// appear as lint events on the trace.
func TestFacadeLint(t *testing.T) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]lift.Request, 0, len(scenarios))
	for _, s := range scenarios {
		reqs = append(reqs, lift.Func(s.Name, s.Image, s.FuncAddr))
	}
	ring := obs.NewRing(1 << 16)
	sum := lift.Run(context.Background(), reqs, lift.Jobs(2), lift.Lint(), lift.Observe(ring))
	if sum.LintErrors != 0 {
		for _, r := range sum.Results {
			for _, rep := range r.Lint {
				t.Errorf("%s:\n%s", r.Name, rep)
			}
		}
		t.Fatalf("scenario graphs should be hglint-clean, got %d errors", sum.LintErrors)
	}
	lifted := 0
	for _, r := range sum.Results {
		if len(r.Lint) > 0 {
			lifted++
		}
	}
	if lifted == 0 {
		t.Fatal("no scenario produced a lint report")
	}
	for _, e := range ring.Events() {
		if e.Kind == obs.KLint && e.Status == hglint.SevError.String() {
			t.Errorf("error-severity lint event on a lifted scenario: %s %s", e.Func, e.Detail)
		}
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
