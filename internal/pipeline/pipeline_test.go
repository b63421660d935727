package pipeline

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/internal/solver"
)

// smallDir builds a small deterministic corpus directory for scheduling
// tests.
func smallDir(t *testing.T) []Task {
	t.Helper()
	return dirTasks(t, corpus.DirShape{
		Name: "pipetest", Kind: corpus.KindLibFunc, Lifted: 6,
		MinStmts: 2, MaxStmts: 8, Helpers: 1,
	}, 42)
}

// dirTasks generates one corpus directory and maps its units onto tasks,
// honouring each unit's step budget.
func dirTasks(t *testing.T, shape corpus.DirShape, seed int64) []Task {
	t.Helper()
	dir, err := corpus.BuildDirectory(shape, seed)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 0, len(dir.Units))
	for _, u := range dir.Units {
		cfg := core.DefaultConfig()
		if u.Budget > 0 {
			cfg.MaxStates = u.Budget
		}
		tasks = append(tasks, Task{
			Name:   u.Name,
			Img:    u.Image,
			Addr:   u.FuncAddr,
			Binary: u.Kind == corpus.KindBinary,
			Cfg:    &cfg,
		})
	}
	return tasks
}

// TestRunDeterministic lifts the same corpus at one and at eight workers
// and requires identical statuses, counts and graph statistics — the
// Table 1 acceptance criterion. The memo cache must see hits in both runs.
func TestRunDeterministic(t *testing.T) {
	tasks := smallDir(t)
	serial := RunCtx(context.Background(), tasks, Options{Jobs: 1})
	wide := RunCtx(context.Background(), tasks, Options{Jobs: 8})

	if serial.Lifted != wide.Lifted || serial.Unprovable != wide.Unprovable ||
		serial.Concurrency != wide.Concurrency || serial.Timeouts != wide.Timeouts ||
		serial.Errors != wide.Errors || serial.Panics != wide.Panics {
		t.Fatalf("status counts differ: jobs=1 %+v jobs=8 %+v", serial, wide)
	}
	for i := range serial.Results {
		s, w := serial.Results[i], wide.Results[i]
		if s.Name != w.Name || s.Status != w.Status {
			t.Fatalf("result %d differs: jobs=1 %s/%s jobs=8 %s/%s",
				i, s.Name, s.Status, w.Name, w.Status)
		}
		if s.Stats.Graph != w.Stats.Graph {
			t.Fatalf("%s: graph stats differ: jobs=1 %+v jobs=8 %+v",
				s.Name, s.Stats.Graph, w.Stats.Graph)
		}
	}
	if serial.Stats.Sem.SolverQueries != wide.Stats.Sem.SolverQueries {
		t.Fatalf("solver query counts differ: %d vs %d",
			serial.Stats.Sem.SolverQueries, wide.Stats.Sem.SolverQueries)
	}
	for _, sum := range []*Summary{serial, wide} {
		if sum.Stats.Sem.SolverHits == 0 {
			t.Fatalf("expected memo cache hits, got none (of %d queries)",
				sum.Stats.Sem.SolverQueries)
		}
	}
}

// TestRunSharedImageRace lifts many tasks that share one image with a wide
// pool: under -race this is the regression test for the concurrent decode
// cache in internal/image.
func TestRunSharedImageRace(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 12)
	for i := range tasks {
		tasks[i] = Task{Name: s.Name, Img: s.Image, Addr: s.FuncAddr}
	}
	sum := RunCtx(context.Background(), tasks, Options{Jobs: 4})
	if sum.Lifted != len(tasks) {
		t.Fatalf("lifted %d of %d: %+v", sum.Lifted, len(tasks), sum)
	}
}

// TestRunCooperativeTimeout gives a real lift a vanishing wall-clock
// budget: the lifter's own per-step check must report the timeout (the
// deterministic path — the watchdog's budget is far larger).
func TestRunCooperativeTimeout(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{{Name: s.Name, Img: s.Image, Addr: s.FuncAddr}}
	sum := RunCtx(context.Background(), tasks, Options{Jobs: 1, Timeout: time.Nanosecond})
	r := sum.Results[0]
	if r.Status != core.StatusTimeout {
		t.Fatalf("status = %s, want %s", r.Status, core.StatusTimeout)
	}
	if sum.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", sum.Timeouts)
	}
	// The cooperative path still returns the function result it abandoned.
	if r.Func == nil {
		t.Fatalf("cooperative timeout lost the function result")
	}
}

// TestRunWatchdogTimeout wedges the lift goroutine before it can make any
// exploration step (so the cooperative check never runs) and requires the
// watchdog to abandon it.
func TestRunWatchdogTimeout(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	hook := func(string) { <-release }
	testHookLiftStart.Store(&hook)
	defer func() { testHookLiftStart.Store(nil); close(release) }()

	tasks := []Task{{Name: s.Name, Img: s.Image, Addr: s.FuncAddr}}
	start := time.Now()
	sum := RunCtx(context.Background(), tasks, Options{Jobs: 1, Timeout: 10 * time.Millisecond})
	if got := sum.Results[0].Status; got != core.StatusTimeout {
		t.Fatalf("status = %s, want %s", got, core.StatusTimeout)
	}
	// The watchdog budget is 2*Timeout + 250ms of slack; well under the
	// blocked lift's (infinite) runtime but comfortably above zero.
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("watchdog took %s", e)
	}
}

// TestRunPanicRecovery panics inside a lift and requires the scheduler to
// convert it into a StatusPanic result without losing the other tasks.
func TestRunPanicRecovery(t *testing.T) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	hook := func(name string) {
		if name == "boom" {
			panic("lift exploded")
		}
	}
	testHookLiftStart.Store(&hook)
	defer testHookLiftStart.Store(nil)

	tasks := []Task{
		{Name: s.Name, Img: s.Image, Addr: s.FuncAddr},
		{Name: "boom", Img: s.Image, Addr: s.FuncAddr},
		{Name: s.Name, Img: s.Image, Addr: s.FuncAddr},
	}
	sum := RunCtx(context.Background(), tasks, Options{Jobs: 2})
	if sum.Panics != 1 || sum.Lifted != 2 {
		t.Fatalf("panics=%d lifted=%d, want 1 and 2", sum.Panics, sum.Lifted)
	}
	r := sum.Results[1]
	if r.Status != core.StatusPanic {
		t.Fatalf("status = %s, want %s", r.Status, core.StatusPanic)
	}
	if !strings.Contains(r.PanicMsg, "lift exploded") {
		t.Fatalf("PanicMsg = %q", r.PanicMsg)
	}
}

// TestRunSharedCache shares one cache across two Runs. The second run over
// the same corpus asks only questions the cache has answered before, so it
// adds no entry: every query it makes is answered from geometry (a
// constant-difference pair, which never reaches the memo) or from the memo.
func TestRunSharedCache(t *testing.T) {
	tasks := smallDir(t)
	cache := solver.NewCache()
	first := RunCtx(context.Background(), tasks, Options{Jobs: 2, Cache: cache})
	before := cache.Stats()
	second := RunCtx(context.Background(), tasks, Options{Jobs: 2, Cache: cache})
	after := cache.Stats()
	if second.Cache != cache || first.Cache != cache {
		t.Fatalf("Run did not adopt the provided cache")
	}
	queries, hits := after.Queries-before.Queries, after.Hits-before.Hits
	exact := after.Exact - before.Exact
	if queries == 0 || hits == 0 || exact == 0 {
		t.Fatalf("second run: %d queries, %d hits, %d exact; want all three non-zero", queries, hits, exact)
	}
	if after.Entries != before.Entries {
		t.Fatalf("second run added %d memo entries, want none", after.Entries-before.Entries)
	}
	if hits+exact != queries {
		t.Fatalf("second run: %d hits + %d exact != %d queries", hits, exact, queries)
	}
	if s := second.Stats.Sem; s.SolverQueries != queries || s.SolverHits != hits {
		t.Fatalf("second run's Stats count %d queries and %d hits, the cache %d and %d",
			s.SolverQueries, s.SolverHits, queries, hits)
	}
	if after.HitRate() <= 0 || after.HitRate() > 1 {
		t.Fatalf("hit rate %v out of range", after.HitRate())
	}
}

// TestRunCtxCancelBeforeStart cancels the context before RunCtx: every
// task must report StatusCancelled without a single lift running.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	tasks := smallDir(t)
	var started atomic.Int32
	hook := func(string) { started.Add(1) }
	testHookLiftStart.Store(&hook)
	defer testHookLiftStart.Store(nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum := RunCtx(ctx, tasks, Options{Jobs: 2})
	if sum.Cancelled != len(tasks) {
		t.Fatalf("Cancelled = %d, want %d", sum.Cancelled, len(tasks))
	}
	for i, r := range sum.Results {
		if r.Status != core.StatusCancelled {
			t.Fatalf("task %d: status %s, want %s", i, r.Status, core.StatusCancelled)
		}
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d lifts started after cancellation", n)
	}
}

// TestRunCtxCancelInFlight cancels the context from inside the first lift:
// the in-flight lift must observe the cancellation cooperatively (or be
// abandoned by the scheduler's select) and report StatusCancelled, and no
// later task may report success.
func TestRunCtxCancelInFlight(t *testing.T) {
	tasks := smallDir(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := func(string) { cancel() }
	testHookLiftStart.Store(&hook)
	defer testHookLiftStart.Store(nil)

	sum := RunCtx(ctx, tasks, Options{Jobs: 1})
	if sum.Cancelled != len(tasks) {
		t.Fatalf("Cancelled = %d of %d; statuses: %v", sum.Cancelled, len(tasks), statuses(sum))
	}
	if sum.Lifted != 0 {
		t.Fatalf("%d tasks lifted after cancellation", sum.Lifted)
	}
}

func statuses(sum *Summary) []core.Status {
	out := make([]core.Status, len(sum.Results))
	for i, r := range sum.Results {
		out[i] = r.Status
	}
	return out
}

// TestRunLint lints what the scheduler lifts: every successfully lifted
// graph of the corpus, linted through the run's shared solver cache, is
// error-free.
func TestRunLint(t *testing.T) {
	sum := RunCtx(context.Background(), smallDir(t), Options{Jobs: 2})
	reports := 0
	for _, r := range sum.Results {
		if r.Status != core.StatusLifted || r.Func == nil {
			continue
		}
		if rep := hglint.Lint(r.Func.Graph, hglint.WithCache(sum.Cache)); rep.HasErrors() {
			t.Errorf("%s:\n%s", r.Name, rep)
		}
		reports++
	}
	if reports == 0 {
		t.Fatal("no lifted graph to lint")
	}
}
