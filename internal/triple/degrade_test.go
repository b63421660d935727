package triple

// Tests for graceful degradation in Step 2: a failed theorem does not stop
// the check, a cancelled check skips theorems explicitly instead of
// failing them (or aborting), and a partial report never claims full
// verification.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/sem"
	"repro/internal/x86"
)

// tamperDistinct gives every non-terminal, non-entry vertex a distinct
// bogus rax claim, so at least two theorems of a straight-line function
// must fail (the entry's successor claim and each claim's successor).
func tamperDistinct(t *testing.T, g *hoare.Graph) int {
	t.Helper()
	n := 0
	for _, v := range g.Vertices {
		if v.State == nil || v.Addr == textBase || v.ID == hoare.ExitID || v.ID == hoare.HaltID {
			continue
		}
		v.State.Pred.SetReg(x86.RAX, expr.Word(100+v.Addr-textBase))
		n++
	}
	if n < 2 {
		t.Fatalf("only %d vertices to tamper with", n)
	}
	return n
}

// TestCheckContinuesPastFailures tampers with several invariants: the
// checker must attempt every theorem, report each failure, skip none, and
// refuse AllProven.
func TestCheckContinuesPastFailures(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(3, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s %v", r.Status, r.Reasons)
	}
	tamperDistinct(t, r.Graph)

	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(1))
	if rep.Failed < 2 {
		t.Fatalf("tampering produced only %d failures, want ≥ 2", rep.Failed)
	}
	if rep.Skipped != 0 {
		t.Fatalf("check skipped %d theorems after a failure", rep.Skipped)
	}
	if rep.AllProven() {
		t.Fatal("failing check claims AllProven")
	}
	if got, want := len(rep.Theorems), len(r.Graph.Vertices); got != want {
		t.Fatalf("report has %d theorems, want %d (one per vertex)", got, want)
	}
}

// TestCancelledChecksSkip runs Check under an already-cancelled context:
// every theorem must report Skipped — not Failed — and the report must
// still refuse AllProven.
func TestCancelledChecksSkip(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s %v", r.Status, r.Reasons)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Check(ctx, im, r.Graph, sem.DefaultConfig(), Workers(2))
	if rep.Skipped != len(rep.Theorems) || rep.Failed != 0 {
		t.Fatalf("cancelled check: skipped=%d failed=%d of %d, want all skipped",
			rep.Skipped, rep.Failed, len(rep.Theorems))
	}
	if rep.AllProven() {
		t.Fatal("cancelled check claims AllProven")
	}
	for _, th := range rep.Theorems {
		if th.Verdict != Skipped || th.Reason == "" {
			t.Fatalf("vertex %s: verdict %s reason %q", th.Vertex, th.Verdict, th.Reason)
		}
	}
}

// TestSkippedVerdictString pins the new verdict's rendering.
func TestSkippedVerdictString(t *testing.T) {
	if Skipped.String() != "skipped" {
		t.Fatalf("Skipped.String() = %q", Skipped.String())
	}
}
