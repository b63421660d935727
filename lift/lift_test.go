package lift_test

// Facade-level coverage of the robustness options: retry-with-backoff and
// resuming against the Hoare-graph store, wired through lift.Run, with
// faults injected the same way the CI smoke job does.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/lift"
)

func scenarioRequests(t *testing.T) []lift.Request {
	t.Helper()
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]lift.Request, 0, len(scenarios))
	for _, s := range scenarios {
		reqs = append(reqs, lift.Func(s.Name, s.Image, s.FuncAddr))
	}
	return reqs
}

// TestFacadeRetryAndResume drives the whole robustness surface through
// the facade: every first attempt panics, retries recover every lift and
// the store keeps the outcomes, and a second run against the same store
// answers every request without lifting. The resumed results carry the
// first run's statuses and statistics with one attempt each, so the
// resumed summary renders like an untroubled run's.
func TestFacadeRetryAndResume(t *testing.T) {
	ctx := context.Background()
	reqs := scenarioRequests(t)
	path := filepath.Join(t.TempDir(), "run.hgcs")
	st, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{Seed: 3, PanicRate: 1, MaxAttemptFaults: 1})
	sum := lift.Run(ctx, reqs,
		lift.Jobs(2),
		lift.Retry(lift.RetryPolicy{MaxAttempts: 2}),
		lift.WithStore(st),
		lift.Faults(inj),
	)
	if sum.Panics != 0 || sum.Retried != len(reqs) {
		t.Fatalf("panics=%d retried=%d, want 0/%d", sum.Panics, sum.Retried, len(reqs))
	}
	if sum.StoreMisses != len(reqs) || sum.StoreWriteErrors != 0 {
		t.Fatalf("first run: misses=%d write-errors=%d, want %d/0",
			sum.StoreMisses, sum.StoreWriteErrors, len(reqs))
	}

	reopened, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := lift.Run(ctx, reqs, lift.WithStore(reopened))
	if resumed.StoreHits != len(reqs) || resumed.StoreMisses != 0 {
		t.Fatalf("resumed run: hits=%d misses=%d, want %d/0",
			resumed.StoreHits, resumed.StoreMisses, len(reqs))
	}
	for i, r := range resumed.Results {
		want := sum.Results[i]
		if r.Status != want.Status || r.Attempts != 1 || r.Stats.Graph != want.Stats.Graph ||
			r.Stats.Sem.SolverQueries != want.Stats.Sem.SolverQueries {
			t.Fatalf("%s: resumed %s attempts=%d %+v, first run %s %+v",
				r.Name, r.Status, r.Attempts, r.Stats.Graph, want.Status, want.Stats.Graph)
		}
	}
	clean := lift.Run(ctx, reqs)
	if got, want := resumed.Canonical(), clean.Canonical(); got != want {
		t.Fatalf("resumed summary diverges from an untroubled run:\n--- resumed ---\n%s--- untroubled ---\n%s", got, want)
	}
}
