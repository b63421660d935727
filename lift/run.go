package lift

// The scheduler behind Run. The paper's observation that Step-2 Hoare
// triples are "mutually independent (parallelisable)" holds one level up
// as well: each function is lifted context-free exactly once, from the
// exact same initial state, so the lifts of a corpus (Table 1's eight
// directories, Table 2's six binaries, Figure 3's size sweep) are
// embarrassingly parallel. Run fans its requests out across Jobs workers
// (pool.ForEach, also used by the Step-2 checker). Each lift runs under a
// wall-clock watchdog and a panic guard: a pathological function reports
// core.StatusDeadline or core.StatusPanic instead of wedging a worker or
// killing the run.
//
// Workers share a single solver memo cache (solver.Cache): verdicts on
// compiler-generated linear address forms repeat heavily across vertices of
// the same function and, for stack-relative regions, across functions, and
// the verdict is a pure function of the cache key, so sharing the cache
// changes no result. The key is a three-word fingerprint struct (the
// predicate's range-clause fingerprint plus one per region, built on the
// expression intern table's per-node hashes), so a probe allocates nothing
// and never renders an expression to text.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sem"
	"repro/internal/solver"
)

// RetryPolicy tunes the rescheduling of faulted lifts (see Retry).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task (≤ 1 disables
	// retrying). A task still failing with a retryable status on its last
	// attempt is quarantined.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles on each
	// further retry.
	Backoff time.Duration
}

// attempts normalises MaxAttempts: the total number of attempts a task
// gets, at least 1.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// retryable reports whether a status is worth another attempt: panics and
// expired deadlines can be transient (a fault, a cold cache, scheduling
// pressure), while the analysis outcomes (lifted, unprovable, concurrency,
// a spent step budget, error) are properties of the binary and
// deterministic.
func retryable(s core.Status) bool {
	return s == core.StatusPanic || s == core.StatusDeadline
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

// Result is the outcome of one scheduled lift.
type Result struct {
	Name   string
	Status core.Status
	// Func is set for function requests, Binary for whole-binary requests;
	// both are nil when the lift panicked or was abandoned by the watchdog.
	Func   *core.FuncResult
	Binary *core.BinaryResult
	// Stats is the final attempt's record: a retried lift's abandoned
	// attempts are never counted, so a corpus's counts do not depend on
	// how many times its lifts were retried.
	Stats Stats
	// PanicMsg carries the recovered panic value for StatusPanic results.
	PanicMsg string
	// Attempts is the number of attempts this task consumed (1 = no
	// retry; 0 = cancelled before its first attempt started).
	Attempts int
	// Quarantined marks a task that exhausted its retry budget while
	// still failing with a retryable status; Status is the final
	// attempt's outcome.
	Quarantined bool
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

// Summary aggregates a Run. Results are in request order regardless of
// the execution interleaving, and every counter is summed in that order,
// so a Summary is deterministic in the inputs.
type Summary struct {
	Results []Result
	// Per-status counts in the shape of Table 1's w + x + y + z
	// decomposition (Errors and Panics are reported separately but belong
	// to the x column when printed in table form). Timeouts counts spent
	// step budgets and Deadlines expired wall-clock budgets; Table 1's z
	// column prints both. Cancelled counts tasks stopped by the Run's
	// context, in flight or before starting.
	Lifted, Unprovable, Concurrency, Timeouts, Deadlines, Errors, Panics, Cancelled int
	// Stats sums every lift's record (all statuses), final attempts only.
	Stats Stats
	// Retried counts tasks that needed more than one attempt;
	// Quarantined counts those that exhausted the retry budget.
	Retried, Quarantined int
	// StoreHits counts tasks answered from the Hoare-graph store,
	// StoreMisses tasks that consulted it and had to lift (0 unless
	// WithStore was set). A fully warm run has StoreMisses == 0: it
	// performed no lifts at all. StoreWriteErrors counts the misses whose
	// result could not be written back (Result.StoreWriteErr); the run
	// is complete, but a re-run will lift them again.
	StoreHits, StoreMisses, StoreWriteErrors int
	// Wall is the wall-clock time of the whole Run.
	Wall time.Duration
	// Cache is the Run's solver cache (shared or per-Run), for corpus-wide
	// hit-rate reporting.
	Cache *solver.Cache
}

// Canonical renders the Summary as a deterministic byte string: results
// in request order with their status, retry accounting and
// scheduling-independent statistics, then the corpus totals. Wall-clock
// fields, the Deadlines count and memo-cache hit counts are excluded —
// time varies run to run, whether a wall-clock budget expires depends on
// the machine, and hits depend on how warm the shared cache was when each
// lift ran (a resumed run answers part of the corpus from the store).
// Everything included is a pure function of the inputs unless a lift's
// deadline expires, so an interrupted run resumed against its store
// renders byte-identically to an uninterrupted one, as long as no task
// needed a retry: a store hit reports one attempt.
func (s *Summary) Canonical() string {
	var b []byte
	app := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	for _, r := range s.Results {
		g := r.Stats.Graph
		app("%s status=%s attempts=%d quarantined=%t instrs=%d states=%d joins=%d edges=%d A=%d B=%d C=%d obl=%d asm=%d weird=%d queries=%d forks=%d destroys=%d\n",
			r.Name, r.Status, r.Attempts, r.Quarantined,
			g.Instructions, g.States, g.Joins, g.Edges,
			g.ResolvedInd, g.UnresolvedJump, g.UnresolvedCall,
			g.Obligations, g.Assumptions, g.WeirdVertices,
			r.Stats.Sem.SolverQueries, r.Stats.Sem.Forks, r.Stats.Sem.Destroys)
	}
	tg := s.Stats.Graph
	app("total lifted=%d unprovable=%d concurrency=%d timeouts=%d errors=%d panics=%d cancelled=%d retried=%d quarantined=%d\n",
		s.Lifted, s.Unprovable, s.Concurrency, s.Timeouts, s.Errors, s.Panics,
		s.Cancelled, s.Retried, s.Quarantined)
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

// Run lifts every request and aggregates the outcomes. Results are in
// request order and every counter is summed in that order, so a Summary
// is deterministic in the inputs regardless of Jobs. Cancelling the
// context stops the run cooperatively: in-flight lifts observe the
// cancellation at their next exploration step and report StatusCancelled,
// and requests not yet started are marked cancelled without running. The
// per-lift Timeout is a deadline derived from the same context, so budget
// expiry and caller cancellation flow through one mechanism; the watchdog
// remains as the last resort for lifts that stop making steps entirely.
func Run(ctx context.Context, reqs []Request, opts ...Option) *Summary {
	s := resolve(opts)
	if s.cache == nil {
		s.cache = solver.NewCache()
	}
	sum := &Summary{Results: make([]Result, len(reqs)), Cache: s.cache}
	start := time.Now()
	pool.ForEach(s.jobs, len(reqs), func(_, i int) {
		sum.Results[i] = runOne(ctx, reqs[i], &s)
	})
	sum.Wall = time.Since(start)
	for i := range sum.Results {
		r := &sum.Results[i]
		sum.Stats.Add(r.Stats)
		if r.Attempts > 1 {
			sum.Retried++
		}
		if r.Quarantined {
			sum.Quarantined++
		}
		if s.store != nil {
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
		case core.StatusDeadline:
			sum.Deadlines++
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

// runOne executes a single request under the retry policy: attempts run
// until one ends in a non-retryable status or the budget is exhausted.
// Only the final attempt's Result (and Stats) is returned. A task still
// failing retryably on its last attempt is quarantined.
func runOne(ctx context.Context, r Request, s *settings) Result {
	tr := s.tracer.WithLift(r.Name)
	start := time.Now()
	var storeKey hgstore.Key
	finish := func(res Result) Result {
		if s.store != nil && !res.FromStore && hgstore.Storable(res.Status) &&
			(res.Func != nil || res.Binary != nil) {
			if n, err := s.store.Put(storeKey, entryFromResult(res), r.Img); err != nil {
				res.StoreWriteErr = err
				tr.StoreError(r.Name, err)
			} else {
				tr.StoreWrite(r.Name, uint64(n))
			}
		}
		tr.TaskFinish(r.Name, res.Status.String(), time.Since(start))
		return res
	}
	if ctx.Err() != nil {
		// The run was cancelled before this task started.
		return finish(Result{Name: r.Name, Status: core.StatusCancelled, Attempts: 0})
	}
	tr.TaskStart(r.Name)
	cfg := s.config(r)
	if s.store != nil {
		addr := r.Addr
		if r.IsBin {
			addr = 0
		}
		storeKey = hgstore.TaskKey(r.Img, addr, r.IsBin, &cfg)
		if e, n, wall, reason := s.store.Lookup(storeKey, r.Img); e != nil {
			tr.StoreHit(r.Name, uint64(n), wall)
			return finish(resultFromEntry(r, e))
		} else {
			tr.StoreMiss(r.Name, reason)
		}
	}
	maxAttempts := s.retry.attempts()
	for attempt := 0; ; attempt++ {
		res := runAttempt(ctx, r, cfg, s, tr, attempt)
		res.Attempts = attempt + 1
		if !retryable(res.Status) {
			return finish(res)
		}
		if attempt+1 >= maxAttempts {
			if maxAttempts > 1 {
				res.Quarantined = true
				tr.Quarantine(r.Name, res.Status.String(), res.Attempts)
			}
			return finish(res)
		}
		backoff := s.retry.Backoff << attempt
		tr.Retry(r.Name, res.Status.String(), attempt, backoff)
		if backoff > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				res.Status = core.StatusCancelled
				res.Quarantined = false
				return finish(res)
			}
		}
	}
}

// runAttempt executes one lift attempt under the watchdog and panic
// guard. The lift itself runs on a child goroutine; if it exceeds the
// watchdog budget the worker abandons it (the cooperative deadline will
// terminate the orphan at its next exploration step) and reports an
// expired deadline, so one wedged lift can never stall the whole corpus.
// Cancelling ctx likewise abandons a lift that does not return promptly
// on its own.
func runAttempt(ctx context.Context, r Request, cfg core.Config, s *settings, tr *obs.Tracer, attempt int) Result {
	lctx := ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		lctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	done := make(chan Result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- Result{Name: r.Name, Status: core.StatusPanic, PanicMsg: fmt.Sprint(p)}
			}
		}()
		if hook := testHookLiftStart.Load(); hook != nil {
			(*hook)(r.Name)
		}
		if d, ok := s.faults.LiftStall(r.Name, attempt); ok {
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
		if s.faults.LiftPanic(r.Name, attempt) {
			panic(fmt.Sprintf("faultinject: injected panic in lift %q attempt %d", r.Name, attempt))
		}
		done <- liftRequest(lctx, r, cfg, s.cache, tr)
	}()
	var watchdog <-chan time.Time
	if s.timeout > 0 {
		// The watchdog allows double the cooperative budget plus
		// scheduling slack before abandoning: a lift that is merely slow
		// still reports its own (cooperative) deadline result.
		timer := time.NewTimer(2*s.timeout + 250*time.Millisecond)
		defer timer.Stop()
		watchdog = timer.C
	}
	select {
	case res := <-done:
		return res
	case <-watchdog:
		tr.Watchdog(r.Name, s.timeout)
		return Result{Name: r.Name, Status: core.StatusDeadline}
	case <-ctx.Done():
		// The caller cancelled the whole run: abandon the lift rather
		// than wait for its next cooperative check.
		return Result{Name: r.Name, Status: core.StatusCancelled}
	}
}

// liftRequest runs the request's lifter under its resolved configuration
// and collects its statistics.
func liftRequest(ctx context.Context, r Request, cfg core.Config, cache *solver.Cache, tr *obs.Tracer) Result {
	cfg.Sem.SolverCache = cache
	cfg.Sem.Tracer = tr
	l := core.New(r.Img, cfg)
	res := Result{Name: r.Name}
	start := time.Now()
	if r.IsBin {
		br := l.LiftBinaryCtx(ctx, r.Name)
		res.Binary = br
		res.Status = br.Status
		res.Stats.Graph = br.Stats
	} else {
		fr := l.LiftFuncCtx(ctx, r.Addr, r.Name)
		res.Func = fr
		res.Status = fr.Status
		res.Stats.Graph = fr.Stats()
	}
	res.Stats.Wall = time.Since(start)
	res.Stats.Sem = l.Counters()
	return res
}

// resultFromEntry reconstructs the Result a cold lift would have produced
// from a decoded store entry: statuses and statistics replay the recorded
// values, and the graphs are the decoded (pointer-canonical) ones.
func resultFromEntry(r Request, e *hgstore.Entry) Result {
	res := Result{
		Name:      r.Name,
		Status:    e.Status,
		Stats:     Stats{Graph: e.Graph, Sem: e.Sem, Wall: e.Wall},
		Attempts:  1,
		FromStore: true,
	}
	if r.IsBin {
		br := &core.BinaryResult{
			Name:     r.Name,
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
