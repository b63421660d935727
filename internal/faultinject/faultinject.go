// Package faultinject is a deterministic, seeded fault injector for the
// lifting pipeline's robustness machinery. Production-scale corpus runs
// must survive worker panics, wedged lifts and being killed part-way; this
// package lets tests and CI *prove* that they do, by injecting exactly
// those faults at decision points the pipeline already owns (the start of
// a lift attempt, the completion of a task).
//
// Every decision is a pure function of (seed, site, key, attempt): an FNV
// hash mapped to [0,1) and compared against the configured rate. Nothing
// depends on wall-clock time, scheduling order or previous decisions, so a
// faulted corpus run is as reproducible as a clean one — the property the
// resume determinism tests rely on: a run that is killed and then resumed
// against its Hoare-graph store re-derives the same faults for the tasks
// it lifts again, and therefore the same statuses.
//
// An *Injector is nil-safe in the style of obs.Tracer: every method is
// free to call on a nil receiver, so the pipeline consults it
// unconditionally and a production run (nil injector) pays one pointer
// check per site.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Config seeds an Injector. Rates are probabilities in [0,1] evaluated
// independently at each site; the zero value injects nothing.
type Config struct {
	// Seed drives every decision; two injectors with the same Seed and
	// rates make identical decisions on identical keys.
	Seed int64
	// PanicRate is the probability that a lift attempt panics on its
	// worker goroutine before exploring.
	PanicRate float64
	// StallRate is the probability that a lift attempt stalls for
	// StallFor before exploring — long enough stalls trip the pipeline's
	// watchdog and exercise the abandon path.
	StallRate float64
	// StallFor is how long a stalled attempt blocks (default 30s, far
	// beyond any test watchdog budget). Stalls end early when the
	// attempt's context is cancelled, so abandoned goroutines drain.
	StallFor time.Duration
	// MaxAttemptFaults caps lift faults per task to the first n attempts
	// (0 = every attempt is eligible). MaxAttemptFaults=1 with
	// PanicRate=1 makes every task fail exactly once and then recover —
	// the shape the retry-accounting regression tests want.
	MaxAttemptFaults int
	// KillAfter, when > 0, invokes the OnKill callback (typically a
	// context cancel) once that many tasks have completed — the
	// "kill a run after K of N tasks" primitive of the resume tests.
	KillAfter int
}

// Counts tallies the faults an injector actually fired.
type Counts struct {
	Panics, Stalls uint64
	Killed         bool
}

// Injector makes deterministic fault decisions. The zero value (or nil)
// injects nothing.
type Injector struct {
	cfg       Config
	completed atomic.Int64
	panics    atomic.Uint64
	stalls    atomic.Uint64
	killed    atomic.Bool

	mu     sync.Mutex
	onKill func()
}

// New returns an injector over the configuration.
func New(cfg Config) *Injector {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 30 * time.Second
	}
	return &Injector{cfg: cfg}
}

// OnKill registers the callback KillAfter fires (at most once).
func (i *Injector) OnKill(fn func()) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.onKill = fn
	i.mu.Unlock()
}

// decide is the deterministic coin flip: FNV-1a over the seed, site, key
// and attempt, avalanched and mapped to [0,1), compared against rate.
// FNV alone correlates strongly on near-identical inputs (consecutive
// task names or attempt numbers land on the same side of the threshold
// far more often than the rate predicts), so the hash is pushed through a
// splitmix64-style finalizer to decorrelate neighbouring keys.
func (i *Injector) decide(site, key string, attempt int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", i.cfg.Seed, site, key, attempt)
	return float64(mix(h.Sum64()))/float64(1<<64) < rate
}

// mix is the splitmix64 finalizer: a bijective avalanche so that inputs
// differing in a few bits yield uncorrelated outputs.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// attemptEligible applies MaxAttemptFaults.
func (i *Injector) attemptEligible(attempt int) bool {
	return i.cfg.MaxAttemptFaults == 0 || attempt < i.cfg.MaxAttemptFaults
}

// LiftPanic reports whether the given lift attempt should panic, counting
// fired decisions.
func (i *Injector) LiftPanic(task string, attempt int) bool {
	if i == nil || !i.attemptEligible(attempt) {
		return false
	}
	if !i.decide("lift-panic", task, attempt, i.cfg.PanicRate) {
		return false
	}
	i.panics.Add(1)
	return true
}

// LiftStall reports whether the given lift attempt should stall, and for
// how long.
func (i *Injector) LiftStall(task string, attempt int) (time.Duration, bool) {
	if i == nil || !i.attemptEligible(attempt) {
		return 0, false
	}
	if !i.decide("lift-stall", task, attempt, i.cfg.StallRate) {
		return 0, false
	}
	i.stalls.Add(1)
	return i.cfg.StallFor, true
}

// TaskCompleted records one completed task and fires the OnKill callback
// when the KillAfter threshold is reached.
func (i *Injector) TaskCompleted() {
	if i == nil {
		return
	}
	n := i.completed.Add(1)
	if i.cfg.KillAfter > 0 && n == int64(i.cfg.KillAfter) && i.killed.CompareAndSwap(false, true) {
		i.mu.Lock()
		fn := i.onKill
		i.mu.Unlock()
		if fn != nil {
			fn()
		}
	}
}

// Fired reports the faults the injector actually injected.
func (i *Injector) Fired() Counts {
	if i == nil {
		return Counts{}
	}
	return Counts{
		Panics: i.panics.Load(),
		Stalls: i.stalls.Load(),
		Killed: i.killed.Load(),
	}
}
