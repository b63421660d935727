package lift

// Tests for the retry policy: rescheduling of panicked lifts and lifts
// whose deadline expired, quarantine on budget exhaustion, that a spent
// step budget is an outcome and not a fault, and — the accounting
// regression — that retried lifts never double-count into Summary totals.

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/hgstore"
	"repro/internal/obs"
)

// TestRetryRecoversInjectedPanics makes every task panic on its first
// attempt: with one retry the corpus must end exactly as an untroubled
// run, with the retries visible only in the accounting.
func TestRetryRecoversInjectedPanics(t *testing.T) {
	reqs := smallDir(t)
	baseline := Run(context.Background(), reqs, Jobs(1))

	inj := faultinject.New(faultinject.Config{Seed: 5, PanicRate: 1, MaxAttemptFaults: 1})
	ring := obs.NewRing(1 << 16)
	sum := Run(context.Background(), reqs,
		Jobs(2), Retry(RetryPolicy{MaxAttempts: 2}), Faults(inj), Observe(ring))
	if sum.Panics != 0 || sum.Quarantined != 0 {
		t.Fatalf("panics=%d quarantined=%d after recovery, want 0/0", sum.Panics, sum.Quarantined)
	}
	if sum.Retried != len(reqs) {
		t.Fatalf("Retried = %d, want %d (every task's first attempt panicked)", sum.Retried, len(reqs))
	}
	for i, r := range sum.Results {
		if r.Attempts != 2 {
			t.Fatalf("result %d: attempts = %d, want 2", i, r.Attempts)
		}
		if r.Status != baseline.Results[i].Status {
			t.Fatalf("result %d: status %s, baseline %s", i, r.Status, baseline.Results[i].Status)
		}
	}
	// Aggregates carry only the final attempts.
	if sum.Stats.Graph != baseline.Stats.Graph {
		t.Fatalf("graph totals differ from the untroubled run:\n retried %+v\nbaseline %+v",
			sum.Stats.Graph, baseline.Stats.Graph)
	}
	if sum.Stats.Sem.SolverQueries != baseline.Stats.Sem.SolverQueries {
		t.Fatalf("solver query totals differ: %d vs baseline %d",
			sum.Stats.Sem.SolverQueries, baseline.Stats.Sem.SolverQueries)
	}
	// The retries rode the tracer.
	retries := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KRetry {
			retries++
		}
	}
	if retries != len(reqs) {
		t.Fatalf("%d retry events, want %d", retries, len(reqs))
	}
}

// TestRetryNoDoubleCount is the accounting regression test: attempt 0
// stalls until its wall-clock budget expires, then lifts under the expired
// context and reports a cooperative deadline with a partial Stats record
// (the exit and halt vertices); attempt 1 lifts normally. The Summary
// totals must be identical to an untroubled run — the abandoned attempts'
// statistics are never counted.
func TestRetryNoDoubleCount(t *testing.T) {
	reqs := smallDir(t)
	baseline := Run(context.Background(), reqs, Jobs(1))

	inj := faultinject.New(faultinject.Config{
		Seed: 1, StallRate: 1, MaxAttemptFaults: 1, StallFor: time.Minute,
	})
	ring := obs.NewRing(1 << 16)
	// One worker per task, so the stalls overlap and the run waits out
	// one budget rather than one per task.
	sum := Run(context.Background(), reqs,
		Jobs(len(reqs)), Timeout(time.Second), Retry(RetryPolicy{MaxAttempts: 2}),
		Faults(inj), Observe(ring))
	if n := inj.Fired().Stalls; n != uint64(len(reqs)) {
		t.Fatalf("stalls fired = %d, want %d", n, len(reqs))
	}
	// Every first attempt reported its own deadline: none was abandoned
	// by the watchdog, which would leave no partial record to miscount.
	expired := map[string]bool{}
	for _, e := range ring.Events() {
		switch {
		case e.Kind == obs.KWatchdog:
			t.Fatalf("%s: watchdog abandoned a lift", e.Func)
		case e.Kind == obs.KLiftFinish && e.Status == core.StatusDeadline.String():
			expired[e.Func] = true
		}
	}
	for _, r := range reqs {
		if !expired[r.Name] {
			t.Fatalf("%s: no lift reported an expired deadline", r.Name)
		}
	}
	if sum.Deadlines != 0 {
		t.Fatalf("deadlines = %d after the retry, want 0", sum.Deadlines)
	}
	if sum.Retried != len(reqs) {
		t.Fatalf("Retried = %d, want %d (every first attempt's deadline expired)",
			sum.Retried, len(reqs))
	}
	if sum.Stats.Graph != baseline.Stats.Graph {
		t.Fatalf("graph totals double-counted:\n retried %+v\nbaseline %+v",
			sum.Stats.Graph, baseline.Stats.Graph)
	}
	if sum.Stats.Sem.SolverQueries != baseline.Stats.Sem.SolverQueries {
		t.Fatalf("solver query totals differ: %d vs baseline %d",
			sum.Stats.Sem.SolverQueries, baseline.Stats.Sem.SolverQueries)
	}
	for i, r := range sum.Results {
		if r.Attempts != 2 {
			t.Fatalf("result %d: attempts = %d, want 2", i, r.Attempts)
		}
	}
}

// TestRetryQuarantine exhausts the budget: every attempt panics, so the
// task must surface its final status, be flagged quarantined, and emit
// retry + quarantine events.
func TestRetryQuarantine(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{Func(s.Name, s.Image, s.FuncAddr)}
	inj := faultinject.New(faultinject.Config{Seed: 1, PanicRate: 1})
	ring := obs.NewRing(256)
	sum := Run(context.Background(), reqs, Jobs(1),
		Retry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}), Faults(inj), Observe(ring))
	r := sum.Results[0]
	if r.Status != core.StatusPanic || !r.Quarantined || r.Attempts != 3 {
		t.Fatalf("status=%s quarantined=%t attempts=%d, want panic/true/3",
			r.Status, r.Quarantined, r.Attempts)
	}
	if sum.Quarantined != 1 || sum.Panics != 1 {
		t.Fatalf("Quarantined=%d Panics=%d, want 1/1", sum.Quarantined, sum.Panics)
	}
	var retries, quarantines int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KRetry:
			retries++
		case obs.KQuarantine:
			quarantines++
		}
	}
	if retries != 2 || quarantines != 1 {
		t.Fatalf("retry events=%d quarantine events=%d, want 2/1", retries, quarantines)
	}
}

// TestRetryRecoversStalledLift wedges the first attempt (an injected
// stall, no exploration steps at all) so only the watchdog can abandon
// it; the retry must then lift normally.
func TestRetryRecoversStalledLift(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{Func(s.Name, s.Image, s.FuncAddr)}
	inj := faultinject.New(faultinject.Config{
		Seed: 1, StallRate: 1, MaxAttemptFaults: 1, StallFor: time.Minute,
	})
	sum := Run(context.Background(), reqs, Jobs(1),
		Timeout(20*time.Millisecond), Retry(RetryPolicy{MaxAttempts: 2}), Faults(inj))
	r := sum.Results[0]
	if r.Status != core.StatusLifted || r.Attempts != 2 {
		t.Fatalf("status=%s attempts=%d, want lifted after 2 attempts", r.Status, r.Attempts)
	}
	if sum.Deadlines != 0 || sum.Retried != 1 {
		t.Fatalf("Deadlines=%d Retried=%d, want 0/1", sum.Deadlines, sum.Retried)
	}
	if inj.Fired().Stalls != 1 {
		t.Fatalf("stalls fired = %d, want 1", inj.Fired().Stalls)
	}
}

// TestRetryDisabledByDefault keeps the zero policy inert: a panicking
// lift fails once, with no retries and no quarantine flag.
func TestRetryDisabledByDefault(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{Func(s.Name, s.Image, s.FuncAddr)}
	inj := faultinject.New(faultinject.Config{Seed: 1, PanicRate: 1})
	sum := Run(context.Background(), reqs, Jobs(1), Faults(inj))
	r := sum.Results[0]
	if r.Status != core.StatusPanic || r.Attempts != 1 || r.Quarantined {
		t.Fatalf("status=%s attempts=%d quarantined=%t, want panic/1/false",
			r.Status, r.Attempts, r.Quarantined)
	}
	if sum.Retried != 0 || sum.Quarantined != 0 {
		t.Fatalf("Retried=%d Quarantined=%d without a policy", sum.Retried, sum.Quarantined)
	}
}

// TestRetryBackoffHonoursCancellation cancels the run while a task sits
// in its retry backoff: the task must come back cancelled promptly, not
// after the full backoff.
func TestRetryBackoffHonoursCancellation(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{Func(s.Name, s.Image, s.FuncAddr)}
	inj := faultinject.New(faultinject.Config{Seed: 1, PanicRate: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sum := Run(ctx, reqs, Jobs(1),
		Retry(RetryPolicy{MaxAttempts: 2, Backoff: time.Hour}), Faults(inj))
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("backoff ignored cancellation: run took %s", e)
	}
	if got := sum.Results[0].Status; got != core.StatusCancelled {
		t.Fatalf("status = %s, want %s", got, core.StatusCancelled)
	}
}

// spentBudget returns a request whose step budget runs out: the weird-edge
// function under a two-step budget, a deterministic StatusTimeout.
func spentBudget(t *testing.T) Request {
	t.Helper()
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxStates = 2
	r := Func(s.Name, s.Image, s.FuncAddr)
	r.Config = &cfg
	return r
}

// TestRetrySkipsSpentStepBudget keeps a spent step budget an outcome: it
// is a property of the function and its budget, so the policy gives it one
// attempt and never quarantines it.
func TestRetrySkipsSpentStepBudget(t *testing.T) {
	sum := Run(context.Background(), []Request{spentBudget(t)},
		Jobs(1), Retry(RetryPolicy{MaxAttempts: 3}))
	r := sum.Results[0]
	if r.Status != core.StatusTimeout || r.Attempts != 1 || r.Quarantined {
		t.Fatalf("status=%s attempts=%d quarantined=%t, want timeout/1/false",
			r.Status, r.Attempts, r.Quarantined)
	}
	if sum.Timeouts != 1 || sum.Retried != 0 || sum.Quarantined != 0 {
		t.Fatalf("Timeouts=%d Retried=%d Quarantined=%d, want 1/0/0",
			sum.Timeouts, sum.Retried, sum.Quarantined)
	}
}

// TestRetryDeadlineNotStored runs a lift past its wall-clock budget: it
// reports StatusDeadline, is retried, and its outcome is not stored, since
// a re-run on another machine or at another moment may lift it.
func TestRetryDeadlineNotStored(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	st, err := hgstore.Open(filepath.Join(t.TempDir(), "s.hgcs"))
	if err != nil {
		t.Fatal(err)
	}
	sum := Run(context.Background(), []Request{Func(s.Name, s.Image, s.FuncAddr)},
		Jobs(1), Timeout(time.Nanosecond), Retry(RetryPolicy{MaxAttempts: 2}), WithStore(st))
	r := sum.Results[0]
	if r.Status != core.StatusDeadline || r.Attempts != 2 || !r.Quarantined {
		t.Fatalf("status=%s attempts=%d quarantined=%t, want deadline/2/true",
			r.Status, r.Attempts, r.Quarantined)
	}
	if sum.Deadlines != 1 || sum.StoreMisses != 1 || sum.StoreWriteErrors != 0 {
		t.Fatalf("Deadlines=%d StoreMisses=%d StoreWriteErrors=%d, want 1/1/0",
			sum.Deadlines, sum.StoreMisses, sum.StoreWriteErrors)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d entries after a deadline, want 0", n)
	}
}
