package lift

// Resuming is re-running against the Hoare-graph store: a run killed
// mid-corpus and re-run against its store answers the tasks it finished
// from the store and lifts only the rest. These tests pin that the
// resumed summary matches an uninterrupted run's, and that a store which
// cannot be written is counted rather than silently skipped.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/hgstore"
	"repro/internal/obs"
	"repro/internal/sem"
)

// resumeDir builds a mid-sized corpus with status diversity (lifted and
// unprovable units), so a resumed run answers more than one outcome kind
// from the store.
func resumeDir(t *testing.T) []Request {
	t.Helper()
	return dirRequests(t, corpus.DirShape{
		Name: "resumetest", Kind: corpus.KindLibFunc, Lifted: 12, Unprovable: 3,
		MinStmts: 2, MaxStmts: 6, Helpers: 1,
	}, 7)
}

// killThenResume runs the requests against a fresh store under faultCfg
// plus a kill switch that cancels the run once half of them have completed,
// then re-runs them against the same store, reopened from disk as a new
// process would, under the same fault seed without the kill.
func killThenResume(t *testing.T, reqs []Request, faultCfg faultinject.Config, retry RetryPolicy) (killed, resumed *Summary) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	killCfg := faultCfg
	killCfg.KillAfter = len(reqs) / 2
	killInj := faultinject.New(killCfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killInj.OnKill(cancel)
	killed = Run(ctx, reqs, Jobs(2), Retry(retry), WithStore(st), Faults(killInj))
	if killed.Cancelled == 0 {
		t.Fatal("kill switch cancelled nothing — the run finished before the threshold")
	}
	if killed.Cancelled == len(reqs) {
		t.Fatal("every task cancelled — nothing stored before the kill")
	}
	if killed.StoreWriteErrors != 0 {
		t.Fatalf("killed run: %d store write errors", killed.StoreWriteErrors)
	}

	reopened, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed = Run(context.Background(), reqs,
		Jobs(1), Retry(retry), WithStore(reopened), Faults(faultinject.New(faultCfg)))
	// Every task the killed run finished is storable (no panic survives
	// the retries, and there is no wall-clock budget), so exactly the
	// cancelled ones lift again.
	if resumed.StoreHits != len(reqs)-killed.Cancelled || resumed.StoreMisses != killed.Cancelled {
		t.Fatalf("resumed run: hits=%d misses=%d, want %d/%d",
			resumed.StoreHits, resumed.StoreMisses, len(reqs)-killed.Cancelled, killed.Cancelled)
	}
	return killed, resumed
}

// TestResumeDeterminism is the acceptance criterion: a run killed after
// half of its tasks and then resumed against its store renders a Summary
// byte-identical (in its Canonical rendering) to an uninterrupted run's.
func TestResumeDeterminism(t *testing.T) {
	reqs := resumeDir(t)
	baseline := Run(context.Background(), reqs, Jobs(1))
	_, resumed := killThenResume(t, reqs, faultinject.Config{Seed: 11}, RetryPolicy{})
	if got, want := resumed.Canonical(), baseline.Canonical(); got != want {
		t.Fatalf("resumed summary diverges from uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
}

// TestResumeUnderInjectedPanics adds seeded panics on well over 10% of
// the tasks, recovered by retries. Every per-task status and statistic of
// the resumed run matches the uninterrupted faulted run; only the attempt
// counts of store hits differ, since a store hit reports one attempt.
func TestResumeUnderInjectedPanics(t *testing.T) {
	reqs := resumeDir(t)
	faultCfg := faultinject.Config{Seed: 11, PanicRate: 0.25, MaxAttemptFaults: 1}
	retry := RetryPolicy{MaxAttempts: 3}
	baseline := Run(context.Background(), reqs,
		Jobs(1), Retry(retry), Faults(faultinject.New(faultCfg)))
	if baseline.Retried == 0 {
		t.Fatal("no task faulted at rate 0.25 — seed needs changing")
	}
	if baseline.Panics != 0 {
		t.Fatalf("baseline has %d unrecovered panics; retries should absorb all", baseline.Panics)
	}
	_, resumed := killThenResume(t, reqs, faultCfg, retry)
	// Memo hits depend on how warm the shared cache was; nothing else may.
	counters := func(c sem.Counters) sem.Counters { c.SolverHits = 0; return c }
	for i, r := range resumed.Results {
		b := baseline.Results[i]
		if r.Status != b.Status || r.Quarantined != b.Quarantined ||
			r.Stats.Graph != b.Stats.Graph || counters(r.Stats.Sem) != counters(b.Stats.Sem) {
			t.Fatalf("%s: resumed %s %+v %+v, baseline %s %+v %+v", r.Name,
				r.Status, r.Stats.Graph, r.Stats.Sem, b.Status, b.Stats.Graph, b.Stats.Sem)
		}
		want := b.Attempts
		if r.FromStore {
			want = 1
		}
		if r.Attempts != want {
			t.Fatalf("%s: attempts=%d, want %d (from store: %t)", r.Name, r.Attempts, want, r.FromStore)
		}
	}
}

// writeErrors records the store write-error events of a run, per task.
type writeErrors struct {
	mu     sync.Mutex
	byTask map[string]int
}

func (w *writeErrors) Emit(e obs.Event) {
	if e.Kind != obs.KStore || e.Status != "write-error" {
		return
	}
	w.mu.Lock()
	w.byTask[e.Func]++
	w.mu.Unlock()
}

// TestStoreWriteFailuresCounted makes every store write fail — the
// container's path is a directory, so each flush's read-back fails — and
// requires the run to be unaffected apart from the count: every result
// equals a store-less run's, and every storable result is one counted
// write error with one write-error event.
func TestStoreWriteFailuresCounted(t *testing.T) {
	reqs := resumeDir(t)
	baseline := Run(context.Background(), reqs, Jobs(2))

	path := filepath.Join(t.TempDir(), "s.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	events := &writeErrors{byTask: map[string]int{}}
	sum := Run(context.Background(), reqs, Jobs(2), WithStore(st), Observe(events))
	if got, want := sum.Canonical(), baseline.Canonical(); got != want {
		t.Fatalf("results diverge from a store-less run:\n--- store ---\n%s--- no store ---\n%s", got, want)
	}
	storable := 0
	for _, r := range sum.Results {
		if r.FromStore {
			t.Fatalf("%s: served from a store that was never written", r.Name)
		}
		if !hgstore.Storable(r.Status) {
			continue
		}
		storable++
		if r.StoreWriteErr == nil {
			t.Fatalf("%s: %s result has no store write error", r.Name, r.Status)
		}
		if n := events.byTask[r.Name]; n != 1 {
			t.Fatalf("%s: %d write-error events, want 1", r.Name, n)
		}
	}
	if storable == 0 || sum.StoreWriteErrors != storable {
		t.Fatalf("StoreWriteErrors = %d, want %d storable results", sum.StoreWriteErrors, storable)
	}
	if len(events.byTask) != storable {
		t.Fatalf("write-error events for %d tasks, want %d", len(events.byTask), storable)
	}
}

// TestStoreKeepsSpentStepBudgetUnderWallBudget stores a spent step budget
// even while a wall-clock budget is in force: the outcome is deterministic,
// so a warm re-run under the same Timeout answers it from the store and
// lifts nothing.
func TestStoreKeepsSpentStepBudgetUnderWallBudget(t *testing.T) {
	reqs := append(smallDir(t), spentBudget(t))
	path := filepath.Join(t.TempDir(), "s.hgcs")
	run := func() *Summary {
		st, err := hgstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return Run(context.Background(), reqs, Jobs(2), WithStore(st), Timeout(time.Minute))
	}
	cold := run()
	if cold.Timeouts != 1 || cold.StoreMisses != len(reqs) {
		t.Fatalf("cold run: timeouts=%d misses=%d, want 1/%d", cold.Timeouts, cold.StoreMisses, len(reqs))
	}
	warm := run()
	if warm.StoreHits != len(reqs) || warm.StoreMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0", warm.StoreHits, warm.StoreMisses, len(reqs))
	}
	if got, want := warm.Canonical(), cold.Canonical(); got != want {
		t.Fatalf("warm summary diverges from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}
