// Package obs is the lifting pipeline's observability layer: a structured
// trace of what Step 1 and Step 2 actually did, emitted live while they
// run. The paper's evaluation tables summarise a lift post-hoc (forks,
// destroys, solver queries, timeouts); proof-producing symbolic-execution
// systems go further and treat the per-step trace as first-class evidence.
// This package gives the reproduction the same: every lift lifecycle
// transition, exploration step, memory-model fork and destroy, solver
// query, join widening, emitted proof obligation, and Step-2 theorem
// verdict becomes an Event fanned out to pluggable sinks.
//
// The design constraint is that observation must be free when off and
// cheap when on. A *Tracer is nil-safe: every emission helper starts with
// a nil receiver check, so a disabled tracer costs exactly one pointer
// comparison on the hot path (the explorer's step loop and the machine's
// solver oracle). Events are plain value structs — building one allocates
// nothing; only sinks that serialise (the JSONL writer) pay for it.
//
// Sinks are deliberately tiny (a single Emit method) so new backends —
// a live TUI, an OpenTelemetry bridge, a sampling profiler — can be added
// without touching the instrumented packages. The three built-ins are the
// JSONL trace writer (sinks.go), the in-memory ring buffer for tests, and
// the Metrics registry (metrics.go), which is itself just a sink that
// aggregates instead of recording.
package obs

import (
	"time"
)

// Kind enumerates the event taxonomy.
type Kind uint8

// The event kinds. Task events bracket one scheduled pipeline task (which
// may lift several functions: a binary lift explores every reachable
// callee); lift events bracket one function exploration.
const (
	KTaskStart  Kind = iota // pipeline: a scheduled task began
	KTaskFinish             // pipeline: a scheduled task completed (Status, Wall)
	KWatchdog               // pipeline: the watchdog abandoned a wedged lift
	KLiftStart              // core: one function exploration began
	KLiftFinish             // core: one function exploration ended (Status, N = steps, Wall)
	KStep                   // core: one exploration step (Algorithm 1 loop body)
	KJoin                   // core: an existing invariant was weakened by joining
	KFork                   // sem: an undecided insertion forked the memory model (N = extra models)
	KDestroy                // sem: an insertion destroyed a region in some model
	KSolver                 // sem: one solver comparison (Hit = answered from memo)
	KObligation             // core: a proof obligation over an external call was emitted
	KTheorem                // triple: a Step-2 theorem verdict (Status, Vertex)
	KRetry                  // pipeline: a failed lift attempt was re-scheduled (Status = attempt's outcome, N = attempt)
	KQuarantine             // pipeline: a task exhausted its retry budget (Status = final outcome, N = attempts)
	KStore                  // hgstore: graph-store activity (Status = hit | miss | write | write-error | flush; N = payload bytes or flushed entries, Wall = decode/flush latency, Detail = miss reason / error)
	KServe                  // serve: daemon request lifecycle (Status = admit | reject | request outcome; Func = request id, Detail = tenant, N = queue depth, Wall = request latency)
	KFallback               // sem: an insertion abandoned its forked models past MaxModels and destroyed instead
	KPtrAnalyze             // ptr: the pointer pre-pass analyzed one function (N = proven facts, Hits = hypotheses, Wall = analysis time)
	KFactHit                // sem: a region comparison was answered from the pointer fact table
)

// kindNames renders the kinds in the JSONL trace.
var kindNames = [...]string{
	KTaskStart:  "task-start",
	KTaskFinish: "task-finish",
	KWatchdog:   "watchdog",
	KLiftStart:  "lift-start",
	KLiftFinish: "lift-finish",
	KStep:       "step",
	KJoin:       "join",
	KFork:       "fork",
	KDestroy:    "destroy",
	KSolver:     "solver",
	KObligation: "obligation",
	KTheorem:    "theorem",
	KRetry:      "retry",
	KQuarantine: "quarantine",
	KStore:      "store",
	KServe:      "serve",
	KFallback:   "fallback",
	KPtrAnalyze: "ptr-analyze",
	KFactHit:    "ptr-hit",
}

// String renders the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind for JSON encoding.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one structured trace record. It is a plain value: constructing
// and passing one allocates nothing, so instrumented hot paths stay cheap
// even with an attached ring or metrics sink.
type Event struct {
	Kind Kind
	// Lift labels the pipeline task the event belongs to (the Task.Name
	// the scheduler was given); empty outside a pipeline run.
	Lift string
	// Func is the function being explored or checked, Addr the relevant
	// instruction (or function entry) address.
	Func string
	Addr uint64
	// Vertex identifies the Hoare-graph vertex of a theorem verdict.
	Vertex string
	// Status carries a lifecycle outcome (core.Status or triple verdict
	// string).
	Status string
	// Detail is free-form context (an obligation text, a watchdog note).
	Detail string
	// N is a count: extra memory models for KFork, exploration steps for
	// KLiftFinish, proven facts for KPtrAnalyze (see each Kind).
	N uint64
	// Hits is a second count for kinds that need one: separation
	// hypotheses for KPtrAnalyze (N holds the proven facts).
	Hits uint64
	// Hit reports a solver memo-cache hit for KSolver.
	Hit bool
	// Wall is the span duration for KTaskFinish / KLiftFinish.
	Wall time.Duration
}

// Sink consumes events. Implementations must be safe for concurrent use:
// the pipeline emits from every worker goroutine.
type Sink interface {
	Emit(Event)
}

// Tracer labels events with the enclosing pipeline task and fans them out
// to its sinks. The zero of the type is never used — a disabled tracer is
// a nil *Tracer, and every method is safe (and free) to call on nil, so
// instrumented code never guards emission sites itself.
type Tracer struct {
	lift  string
	sinks []Sink
}

// NewTracer builds a tracer over the given sinks; nil sinks are dropped,
// and with no (remaining) sinks the result is nil — the disabled tracer —
// so callers can pass optional sinks unconditionally.
func NewTracer(sinks ...Sink) *Tracer {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return &Tracer{sinks: kept}
}

// WithLift returns a tracer emitting into the same sinks with every event
// labelled as belonging to the named pipeline task. On a nil tracer it
// returns nil.
func (t *Tracer) WithLift(name string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{lift: name, sinks: t.sinks}
}

// Emit labels and fans out one event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.Lift = t.lift
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// TaskStart marks a scheduled pipeline task beginning.
func (t *Tracer) TaskStart(name string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KTaskStart, Func: name})
}

// TaskFinish marks a scheduled pipeline task completing.
func (t *Tracer) TaskFinish(name, status string, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KTaskFinish, Func: name, Status: status, Wall: wall})
}

// Watchdog marks the scheduler abandoning a wedged lift.
func (t *Tracer) Watchdog(name string, budget time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KWatchdog, Func: name, Wall: budget,
		Detail: "lift abandoned: no progress within the watchdog budget"})
}

// LiftStart marks one function exploration beginning.
func (t *Tracer) LiftStart(fn string, addr uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KLiftStart, Func: fn, Addr: addr})
}

// LiftFinish marks one function exploration ending.
func (t *Tracer) LiftFinish(fn string, addr uint64, status string, steps int, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KLiftFinish, Func: fn, Addr: addr, Status: status, N: uint64(steps), Wall: wall})
}

// Step marks one exploration step at an instruction address.
func (t *Tracer) Step(addr uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStep, Addr: addr})
}

// Join marks a join widening of the vertex invariant at addr.
func (t *Tracer) Join(addr uint64, vertex string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KJoin, Addr: addr, Vertex: vertex})
}

// Fork marks an undecided memory-model insertion producing extra models.
func (t *Tracer) Fork(addr uint64, extra uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KFork, Addr: addr, N: extra})
}

// Destroy marks a memory-model insertion destroying a region.
func (t *Tracer) Destroy(addr uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KDestroy, Addr: addr})
}

// Fallback marks an insertion whose forked models were abandoned (fan-out
// past MaxModels, or nothing clean derivable without forking) in favour of
// the destroy model.
func (t *Tracer) Fallback(addr uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KFallback, Addr: addr})
}

// PtrAnalyze marks the pointer pre-pass finishing one function: proven is
// the number of predicate-independent facts, hypotheses the number of
// assumed separations, wall the analysis time.
func (t *Tracer) PtrAnalyze(fn string, addr uint64, proven, hypotheses int, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KPtrAnalyze, Func: fn, Addr: addr,
		N: uint64(proven), Hits: uint64(hypotheses), Wall: wall})
}

// FactHit marks a region comparison answered from the pointer fact table
// before the decision procedure ran.
func (t *Tracer) FactHit(addr uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KFactHit, Addr: addr})
}

// Solver marks one solver comparison; hit reports a memo-cache answer.
func (t *Tracer) Solver(addr uint64, hit bool) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KSolver, Addr: addr, Hit: hit})
}

// Obligation marks an emitted proof obligation.
func (t *Tracer) Obligation(addr uint64, text string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KObligation, Addr: addr, Detail: text})
}

// Theorem marks a Step-2 verdict for one vertex.
func (t *Tracer) Theorem(fn, vertex string, addr uint64, verdict string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KTheorem, Func: fn, Vertex: vertex, Addr: addr, Status: verdict})
}

// Retry marks the scheduler re-scheduling a lift whose attempt (0-based)
// ended in the retryable status; backoff is the delay before the next
// attempt.
func (t *Tracer) Retry(name, status string, attempt int, backoff time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KRetry, Func: name, Status: status, N: uint64(attempt), Wall: backoff})
}

// Quarantine marks a task that exhausted its retry budget: attempts is the
// total number consumed, status the final attempt's outcome.
func (t *Tracer) Quarantine(name, status string, attempts int) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KQuarantine, Func: name, Status: status, N: uint64(attempts),
		Detail: "task quarantined: retry budget exhausted"})
}

// StoreHit marks a graph-store lookup answered from the cache: bytes is
// the entry's encoded payload size, wall the decode latency (the cost the
// hit paid instead of a lift).
func (t *Tracer) StoreHit(name string, bytes uint64, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStore, Func: name, Status: "hit", N: bytes, Wall: wall})
}

// StoreMiss marks a graph-store lookup that found no usable entry; reason
// distinguishes why (absent, stale code bytes, version skew, corruption).
func (t *Tracer) StoreMiss(name, reason string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStore, Func: name, Status: "miss", Detail: reason})
}

// StoreWrite marks a freshly lifted result being appended to the graph
// store (bytes = encoded payload size).
func (t *Tracer) StoreWrite(name string, bytes uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStore, Func: name, Status: "write", N: bytes})
}

// StoreError marks a failed store append. The run keeps going — the entry
// is simply not cached — and the Summary counts the failure, so the
// commands can report it and exit non-zero.
func (t *Tracer) StoreError(name string, err error) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStore, Func: name, Status: "write-error", Detail: err.Error()})
}

// StoreFlush marks the graph store persisting its buffered entries in one
// locked flush (the daemon's write mode): entries is how many the store
// holds after it took in what other writers appended, wall the flush's
// latency.
func (t *Tracer) StoreFlush(entries int, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KStore, Status: "flush", N: uint64(entries), Wall: wall})
}

// ServeAdmit marks the daemon admitting one submitted request into the
// bounded lift queue: id names the request, tenant the submitting client
// class, depth the queue depth after admission.
func (t *Tracer) ServeAdmit(id, tenant string, depth int) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KServe, Func: id, Status: "admit", Detail: tenant, N: uint64(depth)})
}

// ServeReject marks an admission rejection — the global queue or the
// tenant's share of it is saturated; the client saw 429 + Retry-After.
func (t *Tracer) ServeReject(id, tenant, reason string) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KServe, Func: id, Status: "reject", Detail: tenant + ": " + reason})
}

// ServeDone marks one admitted request completing: status is the request
// outcome ("ok", "cancelled", "error"), wall the admit-to-finish latency.
func (t *Tracer) ServeDone(id, tenant, status string, wall time.Duration) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KServe, Func: id, Status: status, Detail: tenant, Wall: wall})
}
