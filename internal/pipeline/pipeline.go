// Package pipeline schedules whole-corpus lifting across a bounded pool of
// worker goroutines. The paper's observation that Step-2 Hoare triples are
// "mutually independent (parallelisable)" holds one level up as well: each
// function is lifted context-free exactly once, from the exact same initial
// state, so the lifts of a corpus (Table 1's eight directories, Table 2's
// six binaries, Figure 3's size sweep) are embarrassingly parallel.
//
// Run fans a slice of Tasks out across runtime.NumCPU() workers (ForEach is
// the shared pool primitive, also used by the Step-2 checker). Each lift
// runs under a wall-clock watchdog and a panic guard: a pathological
// function reports core.StatusTimeout or core.StatusPanic instead of
// wedging a worker or killing the run — this is how the paper's Table 1
// "timeout" column (z) arises under a wall-clock budget. Per lift, a Stats
// record collects the extracted graph's statistics (instructions decoded,
// vertices, joins, edges) alongside the machine's solver and memory-model
// counters (queries, memo-cache hits, forks, destroys) and the wall time;
// the Summary aggregates them corpus-wide in deterministic input order, so
// counts are identical at -jobs 1 and -jobs N.
//
// Workers share a single solver memo cache (solver.Cache): verdicts on
// compiler-generated linear address forms repeat heavily across vertices of
// the same function and, for stack-relative regions, across functions, and
// the verdict is a pure function of the cache key, so sharing the cache
// changes no result. The key is a three-word fingerprint struct (the
// predicate's range-clause fingerprint plus one per region, built on the
// expression intern table's per-node hashes), so a probe allocates nothing
// and never renders an expression to text.
package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/solver"
)

// Task is one lift to schedule: a whole binary from its entry point
// (Binary true — Table 1's upper part) or a single function at Addr
// (Table 1's lower part, the shared-object workflow).
type Task struct {
	Name   string
	Img    *image.Image
	Addr   uint64 // function entry; ignored when Binary
	Binary bool
	// Cfg overrides the lifter configuration (nil = core.DefaultConfig()).
	// The scheduler copies it before installing the shared solver cache
	// and the per-lift timeout.
	Cfg *core.Config
}

// Options tunes a Run.
type Options struct {
	// Jobs is the worker count; ≤ 0 selects runtime.NumCPU().
	Jobs int
	// Timeout is the per-lift wall-clock budget (0 = none). It is enforced
	// twice: cooperatively, as a context deadline the explorer checks at
	// every exploration step, and by a watchdog that abandons a lift which
	// stops making steps at all; either way the lift reports
	// StatusTimeout.
	Timeout time.Duration
	// Cache is the shared solver memo cache (nil = one fresh cache per
	// Run). Pass an explicit cache to share verdicts across several Runs,
	// e.g. across the directories of a Table 1 sweep.
	Cache *solver.Cache
	// Tracer, when non-nil, observes the run: per-task spans, watchdog
	// abandons, and — relabelled per task — every exploration, solver and
	// memory-model event the lift emits. nil disables observation for the
	// cost of a pointer check per event site.
	Tracer *obs.Tracer
	// Lint, when true, runs the hglint static analyzer over every
	// successfully lifted graph right after its lift, through the run's
	// shared solver cache. Reports land on each Result (and their
	// diagnostics on the tracer as lint events); the Summary counts the
	// error-severity findings, so schedulers and tests can fail fast on a
	// malformed graph without paying for Step 2.
	Lint bool
	// Retry re-schedules lifts that end in StatusPanic or StatusTimeout —
	// the two statuses that can arise from infrastructure faults rather
	// than properties of the binary. Every lift is context-free and starts
	// from the same initial state, so retrying one is sound: a retry can
	// only reproduce the outcome or replace a fault with the real result.
	// The zero policy disables retrying.
	Retry RetryPolicy
	// Faults, when non-nil, is the deterministic fault injector consulted
	// at the start of every lift attempt and at kill-after thresholds.
	// Production runs leave it nil; tests and the CI smoke job use it to
	// prove the retry and resume machinery.
	Faults *faultinject.Injector
	// PointerFacts enables the pointer-analysis pre-pass
	// (core.Config.PointerFacts) on every task of the run, overriding the
	// per-task configuration. The flag participates in the store's
	// configuration fingerprint — the same task with and without facts
	// occupies two distinct store entries — because the pre-pass changes
	// which functions lift and what assumptions their graphs carry.
	PointerFacts bool
	// Store, when non-nil, is the content-addressed Hoare-graph cache: a
	// task whose (code hash, config fingerprint, lifter version) key has a
	// valid entry skips Step-1 lifting entirely — the result (graphs,
	// statistics replay) is decoded from the store, optionally re-linted,
	// and reported with FromStore set. Misses lift as usual and append
	// their outcome when Storable. The store is also how an interrupted
	// run resumes: re-running it against the same store answers every
	// stored task without lifting, and because a store survives corpus
	// changes, only the tasks whose code bytes drifted re-lift. A Put
	// that fails leaves the task uncached; Result.StoreWriteErr and
	// Summary.StoreWriteErrors report it.
	Store *hgstore.Store
}

// RetryPolicy tunes the pipeline's rescheduling of faulted lifts.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task (≤ 1 disables
	// retrying). A task still failing with a retryable status on its last
	// attempt is quarantined.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles on each
	// further retry, capped by MaxBackoff when set.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = uncapped).
	MaxBackoff time.Duration
	// TimeoutScale multiplies the per-attempt timeout on each retry
	// (values ≤ 1 keep Options.Timeout constant), so a lift that timed
	// out under a tight budget gets an escalating one.
	TimeoutScale float64
}

// attempts normalises MaxAttempts: the total number of attempts a task
// gets, at least 1.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// delay returns the backoff before the retry that follows the given
// failed attempt (0-based index): Backoff doubled per retry, capped by
// MaxBackoff when set.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.Backoff << attempt
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// timeout escalates the base per-lift budget for the given attempt.
func (p RetryPolicy) timeout(base time.Duration, attempt int) time.Duration {
	if base <= 0 || p.TimeoutScale <= 1 {
		return base
	}
	d := base
	for i := 0; i < attempt; i++ {
		d = time.Duration(float64(d) * p.TimeoutScale)
	}
	return d
}

// retryable reports whether a status is worth another attempt: panics and
// timeouts can be transient (a fault, a cold cache, scheduling pressure),
// while the analysis outcomes (lifted, unprovable, concurrency, error)
// are properties of the binary and deterministic.
func retryable(s core.Status) bool {
	return s == core.StatusPanic || s == core.StatusTimeout
}

// Stats is the per-lift statistics record, also used for corpus totals.
type Stats struct {
	// Graph summarises the extracted Hoare graph(s): instructions decoded,
	// vertices (states), joins, edges, Table 1's A/B/C columns.
	Graph hoare.Stats
	// Sem tallies the machine's solver queries, memo-cache hits, memory-
	// model forks and destroys during the lift.
	Sem sem.Counters
	// Wall is the lift's wall-clock time (for totals: the sum over lifts,
	// which exceeds the Run's Wall when jobs > 1).
	Wall time.Duration
}

// Add accumulates another record.
func (s *Stats) Add(o Stats) {
	s.Graph.Add(o.Graph)
	s.Sem.Add(o.Sem)
	s.Wall += o.Wall
}

// SolverHitRate returns the fraction of solver queries answered from the
// memo cache.
func (s Stats) SolverHitRate() float64 {
	if s.Sem.SolverQueries == 0 {
		return 0
	}
	return float64(s.Sem.SolverHits) / float64(s.Sem.SolverQueries)
}

// Result is the outcome of one scheduled lift.
type Result struct {
	Name   string
	Index  int // position in the input task slice
	Status core.Status
	// Func is set for function tasks, Binary for whole-binary tasks; both
	// are nil when the lift panicked or was abandoned by the watchdog.
	Func   *core.FuncResult
	Binary *core.BinaryResult
	Stats  Stats
	// PanicMsg carries the recovered panic value for StatusPanic results.
	PanicMsg string
	// Lint holds one hglint report per successfully lifted graph (in
	// Funcs order for binary tasks); nil unless Options.Lint was set.
	Lint []*hglint.Report
	// Attempts is the number of attempts this task consumed (1 = no
	// retry; 0 = cancelled before its first attempt started).
	Attempts int
	// Quarantined marks a task that exhausted its retry budget while
	// still failing with a retryable status; Status is the final
	// attempt's outcome.
	Quarantined bool
	// RetryStats aggregates the statistics of the abandoned (retried)
	// attempts. They are reported separately and never folded into Stats
	// or the Summary totals: a corpus's counts must not depend on how
	// many times its lifts were retried.
	RetryStats Stats
	// FromStore marks a result decoded from the Hoare-graph store instead
	// of lifted. It carries full Func/Binary payloads (the store persists
	// graphs) and reports one attempt; Stats replay the cold lift's
	// record, so warm summaries aggregate identically to cold ones.
	FromStore bool
	// StoreWriteErr is the error of a failed store Put of this result: the
	// lift completed, but its graphs were not cached, so a re-run lifts
	// the task again. nil when the write succeeded or none was attempted.
	StoreWriteErr error
}

// LintErrors sums the error-severity diagnostics across the result's
// lint reports.
func (r *Result) LintErrors() int {
	n := 0
	for _, rep := range r.Lint {
		n += rep.Errors()
	}
	return n
}

// Summary aggregates a Run. Results are in task order regardless of the
// execution interleaving, and every counter is summed in that order, so a
// Summary is deterministic in the inputs.
type Summary struct {
	Results []Result
	// Per-status counts in the shape of Table 1's w + x + y + z
	// decomposition (Errors and Panics are reported separately but belong
	// to the x column when printed in table form). Cancelled counts tasks
	// stopped by the Run's context, in flight or before starting.
	Lifted, Unprovable, Concurrency, Timeouts, Errors, Panics, Cancelled int
	// Stats sums every lift's record (all statuses) — final attempts
	// only; abandoned attempts accumulate into RetryStats instead.
	Stats Stats
	// RetryStats sums the abandoned attempts' records across the run,
	// kept out of Stats so retried corpora aggregate identically to
	// untroubled ones.
	RetryStats Stats
	// Retried counts tasks that needed more than one attempt;
	// Quarantined counts those that exhausted the retry budget.
	Retried, Quarantined int
	// StoreHits counts tasks answered from the Hoare-graph store,
	// StoreMisses tasks that consulted it and had to lift (0 unless
	// Options.Store was set). A fully warm run has StoreMisses == 0: it
	// performed no lifts at all. StoreWriteErrors counts the misses whose
	// result could not be written back (Result.StoreWriteErr); the run
	// is complete, but a re-run will lift them again.
	StoreHits, StoreMisses, StoreWriteErrors int
	// LintErrors sums error-severity hglint diagnostics across every
	// result (0 unless Options.Lint was set).
	LintErrors int
	// Wall is the wall-clock time of the whole Run.
	Wall time.Duration
	// Cache is the Run's solver cache (shared or per-Run), for corpus-wide
	// hit-rate reporting.
	Cache *solver.Cache
}

// Canonical renders the Summary as a deterministic byte string: results
// in task order with their status, retry accounting and
// scheduling-independent statistics, then the corpus totals. Wall-clock
// fields, memo-cache hit counts and the statistics of abandoned attempts
// are excluded — time varies run to run, hits depend on how warm the
// shared cache was when each lift ran (a resumed run answers part of the
// corpus from the store), and a cooperatively timed-out attempt's
// partial statistics depend on where the deadline landed. Everything
// included is a pure function of the inputs, so an interrupted run
// resumed against its store renders byte-identically to an uninterrupted
// one, as long as no task needed a retry: a store hit reports one
// attempt.
func (s *Summary) Canonical() string {
	var b []byte
	app := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	for _, r := range s.Results {
		g := r.Stats.Graph
		app("%s status=%s attempts=%d quarantined=%t lint=%d instrs=%d states=%d joins=%d edges=%d A=%d B=%d C=%d obl=%d asm=%d weird=%d queries=%d forks=%d destroys=%d\n",
			r.Name, r.Status, r.Attempts, r.Quarantined, r.LintErrors(),
			g.Instructions, g.States, g.Joins, g.Edges,
			g.ResolvedInd, g.UnresolvedJump, g.UnresolvedCall,
			g.Obligations, g.Assumptions, g.WeirdVertices,
			r.Stats.Sem.SolverQueries, r.Stats.Sem.Forks, r.Stats.Sem.Destroys)
	}
	tg := s.Stats.Graph
	app("total lifted=%d unprovable=%d concurrency=%d timeouts=%d errors=%d panics=%d cancelled=%d retried=%d quarantined=%d lint=%d\n",
		s.Lifted, s.Unprovable, s.Concurrency, s.Timeouts, s.Errors, s.Panics,
		s.Cancelled, s.Retried, s.Quarantined, s.LintErrors)
	app("stats instrs=%d states=%d joins=%d edges=%d A=%d B=%d C=%d obl=%d asm=%d weird=%d queries=%d forks=%d destroys=%d\n",
		tg.Instructions, tg.States, tg.Joins, tg.Edges,
		tg.ResolvedInd, tg.UnresolvedJump, tg.UnresolvedCall,
		tg.Obligations, tg.Assumptions, tg.WeirdVertices,
		s.Stats.Sem.SolverQueries, s.Stats.Sem.Forks, s.Stats.Sem.Destroys)
	return string(b)
}

// testHookLiftStart, when set, runs at the start of every lift on the
// worker's lift goroutine. Tests use it to wedge a lift and exercise the
// watchdog path; it is atomic because an abandoned lift may still read it
// after its Run returned.
var testHookLiftStart atomic.Pointer[func(name string)]

// RunCtx lifts every task and aggregates the outcomes. Cancelling the
// context stops the run cooperatively: in-flight lifts observe the
// cancellation at their next exploration step and report StatusCancelled,
// and tasks not yet started are marked cancelled without running. The
// per-lift timeout (Options.Timeout) is a deadline derived from the same
// context, so budget expiry and caller cancellation flow through one
// mechanism; the watchdog remains as the last resort for lifts that stop
// making steps entirely.
func RunCtx(ctx context.Context, tasks []Task, opts Options) *Summary {
	if opts.Cache == nil {
		opts.Cache = solver.NewCache()
	}
	sum := &Summary{Results: make([]Result, len(tasks)), Cache: opts.Cache}
	start := time.Now()
	ForEach(opts.Jobs, len(tasks), func(i int) {
		sum.Results[i] = runOne(ctx, tasks[i], i, opts)
		opts.Faults.TaskCompleted()
	})
	sum.Wall = time.Since(start)
	for i := range sum.Results {
		r := &sum.Results[i]
		sum.Stats.Add(r.Stats)
		sum.RetryStats.Add(r.RetryStats)
		sum.LintErrors += r.LintErrors()
		if r.Attempts > 1 {
			sum.Retried++
		}
		if r.Quarantined {
			sum.Quarantined++
		}
		if opts.Store != nil {
			if r.FromStore {
				sum.StoreHits++
			} else if r.Status != core.StatusCancelled {
				sum.StoreMisses++
			}
		}
		if r.StoreWriteErr != nil {
			sum.StoreWriteErrors++
		}
		switch r.Status {
		case core.StatusLifted:
			sum.Lifted++
		case core.StatusUnprovableRet:
			sum.Unprovable++
		case core.StatusConcurrency:
			sum.Concurrency++
		case core.StatusTimeout:
			sum.Timeouts++
		case core.StatusPanic:
			sum.Panics++
		case core.StatusCancelled:
			sum.Cancelled++
		default:
			sum.Errors++
		}
	}
	return sum
}

// runOne executes a single task under the retry policy: attempts run
// until one ends in a non-retryable status or the budget is exhausted.
// Only the final attempt's Result (and Stats) is returned; abandoned
// attempts accumulate into RetryStats so corpus totals never double-count
// a retried lift. A task still failing retryably on its last attempt is
// quarantined.
func runOne(ctx context.Context, t Task, idx int, opts Options) Result {
	tr := opts.Tracer.WithLift(t.Name)
	start := time.Now()
	var storeKey hgstore.Key
	finish := func(r Result) Result {
		if opts.Store != nil && !r.FromStore &&
			hgstore.Storable(r.Status, opts.Timeout > 0) &&
			(r.Func != nil || r.Binary != nil) {
			if n, err := opts.Store.Put(storeKey, entryFromResult(r), t.Img); err != nil {
				r.StoreWriteErr = err
				tr.StoreError(t.Name, err)
			} else {
				tr.StoreWrite(t.Name, uint64(n))
			}
		}
		tr.TaskFinish(t.Name, r.Status.String(), time.Since(start))
		return r
	}
	if ctx.Err() != nil {
		// The run was cancelled before this task started.
		return finish(Result{Name: t.Name, Index: idx, Status: core.StatusCancelled, Attempts: 0})
	}
	tr.TaskStart(t.Name)
	if opts.Store != nil {
		addr := t.Addr
		if t.Binary {
			addr = 0
		}
		// Key on the effective configuration — the one lift() will run
		// under, with run-level options folded in — never on the raw task
		// override, or a -ptr run could answer from (and poison) the
		// factless entries.
		cfg := effectiveConfig(t, opts)
		storeKey = hgstore.TaskKey(t.Img, addr, t.Binary, &cfg)
		if e, n, wall, reason := opts.Store.Lookup(storeKey, t.Img); e != nil {
			tr.StoreHit(t.Name, uint64(n), wall)
			return finish(resultFromEntry(t, idx, e, opts, tr))
		} else {
			tr.StoreMiss(t.Name, reason)
		}
	}
	maxAttempts := opts.Retry.attempts()
	var retryStats Stats
	for attempt := 0; ; attempt++ {
		r := runAttempt(ctx, t, idx, opts, tr, attempt)
		r.Attempts = attempt + 1
		r.RetryStats = retryStats
		if !retryable(r.Status) {
			return finish(r)
		}
		if attempt+1 >= maxAttempts {
			if maxAttempts > 1 {
				r.Quarantined = true
				tr.Quarantine(t.Name, r.Status.String(), r.Attempts)
			}
			return finish(r)
		}
		retryStats.Add(r.Stats)
		backoff := opts.Retry.delay(attempt)
		tr.Retry(t.Name, r.Status.String(), attempt, backoff)
		if backoff > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				r.Status = core.StatusCancelled
				r.Quarantined = false
				return finish(r)
			}
		}
	}
}

// runAttempt executes one lift attempt under the watchdog and panic
// guard. The lift itself runs on a child goroutine; if it exceeds the
// watchdog budget the worker abandons it (the cooperative deadline will
// terminate the orphan at its next exploration step) and reports a
// timeout, so one wedged lift can never stall the whole corpus.
// Cancelling ctx likewise abandons a lift that does not return promptly
// on its own.
func runAttempt(ctx context.Context, t Task, idx int, opts Options, tr *obs.Tracer, attempt int) Result {
	budget := opts.Retry.timeout(opts.Timeout, attempt)
	lctx := ctx
	if budget > 0 {
		var cancel context.CancelFunc
		lctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	done := make(chan Result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- Result{
					Name:     t.Name,
					Index:    idx,
					Status:   core.StatusPanic,
					PanicMsg: fmt.Sprint(r),
				}
			}
		}()
		if hook := testHookLiftStart.Load(); hook != nil {
			(*hook)(t.Name)
		}
		if d, ok := opts.Faults.LiftStall(t.Name, attempt); ok {
			// An injected stall blocks without stepping — the shape of a
			// wedged lift — but drains promptly once the attempt's
			// context is cancelled (watchdog abandon or run cancel).
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-lctx.Done():
				timer.Stop()
			}
		}
		if opts.Faults.LiftPanic(t.Name, attempt) {
			panic(fmt.Sprintf("faultinject: injected panic in lift %q attempt %d", t.Name, attempt))
		}
		done <- lift(lctx, t, idx, opts, tr)
	}()
	var watchdog <-chan time.Time
	if budget > 0 {
		// The watchdog allows double the cooperative budget plus
		// scheduling slack before abandoning: a lift that is merely slow
		// still reports its own (cooperative, deterministic) timeout
		// result.
		timer := time.NewTimer(2*budget + 250*time.Millisecond)
		defer timer.Stop()
		watchdog = timer.C
	}
	select {
	case r := <-done:
		return r
	case <-watchdog:
		tr.Watchdog(t.Name, budget)
		return Result{Name: t.Name, Index: idx, Status: core.StatusTimeout}
	case <-ctx.Done():
		// The caller cancelled the whole run: abandon the lift rather
		// than wait for its next cooperative check.
		return Result{Name: t.Name, Index: idx, Status: core.StatusCancelled}
	}
}

// effectiveConfig materialises the lifter configuration a task runs under:
// the task's override (or the default) with the run-level semantic options
// folded in. Both the store key and the lift use this one function, so a
// store entry is always keyed on the configuration that produced it.
func effectiveConfig(t Task, opts Options) core.Config {
	cfg := core.DefaultConfig()
	if t.Cfg != nil {
		cfg = *t.Cfg
	}
	if opts.PointerFacts {
		cfg.PointerFacts = true
	}
	return cfg
}

// lift runs the task's lifter and collects its statistics.
func lift(ctx context.Context, t Task, idx int, opts Options, tr *obs.Tracer) Result {
	cfg := effectiveConfig(t, opts)
	cfg.Sem.SolverCache = opts.Cache
	cfg.Sem.Tracer = tr
	l := core.New(t.Img, cfg)
	res := Result{Name: t.Name, Index: idx}
	start := time.Now()
	if t.Binary {
		br := l.LiftBinaryCtx(ctx, t.Name)
		res.Binary = br
		res.Status = br.Status
		res.Stats.Graph = br.Stats
	} else {
		fr := l.LiftFuncCtx(ctx, t.Addr, t.Name)
		res.Func = fr
		res.Status = fr.Status
		res.Stats.Graph = fr.Stats()
	}
	res.Stats.Wall = time.Since(start)
	res.Stats.Sem = l.Counters()
	if opts.Lint {
		lintResult(&res, opts.Cache, tr)
	}
	return res
}

// resultFromEntry reconstructs the Result a cold lift would have produced
// from a decoded store entry: statuses and statistics replay the recorded
// values, the graphs are the decoded (pointer-canonical) ones, and — like
// a fresh lift — the result is re-linted when the run asks for it, so a
// corrupted-but-checksum-valid graph cannot sneak past the analyzer.
func resultFromEntry(t Task, idx int, e *hgstore.Entry, opts Options, tr *obs.Tracer) Result {
	res := Result{
		Name:      t.Name,
		Index:     idx,
		Status:    e.Status,
		Stats:     Stats{Graph: e.Graph, Sem: e.Sem, Wall: e.Wall},
		Attempts:  1,
		FromStore: true,
	}
	if t.Binary {
		br := &core.BinaryResult{
			Name:     t.Name,
			Status:   e.Status,
			Funcs:    e.Funcs,
			Stats:    e.Graph,
			Duration: e.Duration,
		}
		if e.EntryIndex >= 0 {
			br.Entry = e.Funcs[e.EntryIndex]
		}
		res.Binary = br
	} else if len(e.Funcs) > 0 {
		res.Func = e.Funcs[0]
	}
	if opts.Lint {
		lintResult(&res, opts.Cache, tr)
	}
	return res
}

// entryFromResult converts a completed lift into its store entry.
func entryFromResult(r Result) *hgstore.Entry {
	e := &hgstore.Entry{
		Status:     r.Status,
		Graph:      r.Stats.Graph,
		Sem:        r.Stats.Sem,
		Wall:       r.Stats.Wall,
		EntryIndex: -1,
	}
	switch {
	case r.Binary != nil:
		e.Duration = r.Binary.Duration
		e.Funcs = r.Binary.Funcs
		for i, fr := range r.Binary.Funcs {
			if fr == r.Binary.Entry {
				e.EntryIndex = i
			}
		}
	case r.Func != nil:
		e.Duration = r.Func.Duration
		e.Funcs = []*core.FuncResult{r.Func}
	}
	return e
}

// lintResult runs the static analyzer over every successfully lifted
// graph of one result, through the run's shared solver memo cache, and
// forwards each diagnostic to the tracer. Failed lifts stop exploring
// mid-graph, so only StatusLifted graphs are expected to be well-formed.
func lintResult(res *Result, cache *solver.Cache, tr *obs.Tracer) {
	var frs []*core.FuncResult
	switch {
	case res.Binary != nil:
		frs = res.Binary.Funcs
	case res.Func != nil:
		frs = []*core.FuncResult{res.Func}
	}
	for _, fr := range frs {
		if fr.Status != core.StatusLifted || fr.Graph == nil {
			continue
		}
		rep := hglint.Lint(fr.Graph, hglint.WithCache(cache))
		res.Lint = append(res.Lint, rep)
		for _, d := range rep.Diagnostics {
			tr.Lint(fr.Name, d.Vertex, d.Addr, d.Severity.String(), d.Rule, d.Msg)
		}
	}
}
