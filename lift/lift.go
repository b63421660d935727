// Package lift is the front door to both steps of the paper: Run and One
// schedule lifts of requests (Step 1), and Check re-verifies a lifted
// graph (Step 2), with one request type and one functional-option set
// threaded end to end by a context.Context:
//
//	metrics := obs.NewMetrics()
//	sum := lift.Run(ctx, []lift.Request{
//	        lift.Binary("a.elf", imgA),
//	        lift.Func("strlen", imgB, 0x401000),
//	    },
//	    lift.Jobs(8),
//	    lift.Timeout(30*time.Second),
//	    lift.Observe(metrics),
//	)
//	for _, fr := range sum.Results[0].Binary.Funcs {
//	        rep := lift.Check(ctx, imgA, fr.Graph, lift.Jobs(8))
//	        fmt.Println(fr.Name, rep.Proven, rep.AllProven())
//	}
//
// Cancelling ctx stops in-flight lifts cooperatively (they report
// core.StatusCancelled) and skips tasks not yet started; the per-lift
// Timeout is a deadline on the same context (an expired one reports
// core.StatusDeadline), so the two budgets share one mechanism. A
// cancelled Check reports its unchecked theorems as Skipped. Every command
// and example lifts and checks through this package; only Run constructs
// a lifter.
//
// Check has one configuration. It assumes the separations the graph's
// assumption list holds and no others, whatever options lifted the graph,
// so a graph saved to a file and loaded elsewhere checks exactly as it did
// in the process that lifted it.
//
// One persistence surface composes with a Run: WithStore(st) makes
// lifting incremental. Lifted Hoare graphs are cached content-addressed by
// (code bytes, config, lifter version), so a re-run over an unchanged
// corpus decodes graphs instead of lifting them, and editing one function
// re-lifts only that function. The store is also how an interrupted run
// resumes: re-run it against the same store, and only what the store does
// not keep lifts again — the tasks that never finished, panics,
// quarantines and expired wall-clock deadlines.
package lift

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/triple"
)

// Store is a content-addressed cache of lifted Hoare graphs (see
// WithStore and OpenStore).
type Store = hgstore.Store

// OpenStore opens the Hoare-graph store at path: an existing container is
// loaded (corrupt or version-skewed records are dropped and counted, never
// fatal), a missing file starts an empty store that is created on first
// write.
func OpenStore(path string) (*Store, error) {
	return hgstore.Open(path)
}

// Request names one unit of work: a whole binary lifted from its entry
// point, or a single function at an address. Construct with Binary or
// Func; Config, when non-nil, overrides the run-level lifter
// configuration for this request only.
type Request struct {
	Name   string
	Img    *image.Image
	Addr   uint64
	IsBin  bool
	Config *core.Config
}

// Binary requests lifting a whole binary from its entry point (Table 1's
// upper part).
func Binary(name string, img *image.Image) Request {
	return Request{Name: name, Img: img, IsBin: true}
}

// Func requests lifting the single function at addr (Table 1's lower
// part, the shared-object workflow).
func Func(name string, img *image.Image, addr uint64) Request {
	return Request{Name: name, Img: img, Addr: addr}
}

// UnitRequests maps generated corpus units onto requests, honouring each
// unit's step budget — the one translation cmd/xenbench and the benchmark
// harness used to duplicate.
func UnitRequests(units []*corpus.Unit) []Request {
	reqs := make([]Request, 0, len(units))
	for _, u := range units {
		r := Request{
			Name:  u.Name,
			Img:   u.Image,
			Addr:  u.FuncAddr,
			IsBin: u.Kind == corpus.KindBinary,
		}
		if u.Budget > 0 {
			cfg := core.DefaultConfig()
			cfg.MaxStates = u.Budget
			r.Config = &cfg
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// settings is the resolved option set of one Run or Check.
type settings struct {
	jobs    int                   // Jobs
	timeout time.Duration         // Timeout
	cache   *solver.Cache         // Cache
	tracer  *obs.Tracer           // Observe
	retry   RetryPolicy           // Retry
	store   *Store                // WithStore
	faults  *faultinject.Injector // Faults
	// Set on every request's configuration.
	joinCodePointers bool // JoinCodePointers
	facts            bool // PointerFacts
}

// Option tunes a Run (functional options over the unified settings).
type Option func(*settings)

// Jobs sets the worker count (≤ 0 selects all CPUs): lifts in flight for
// Run, theorems in flight for Check.
func Jobs(n int) Option {
	return func(s *settings) { s.jobs = n }
}

// Timeout sets the per-lift wall-clock budget (0 = none), the same for
// every attempt, enforced as a context deadline checked at every
// exploration step plus a watchdog that abandons a lift which stops
// stepping entirely; either way an expired budget reports
// core.StatusDeadline.
func Timeout(d time.Duration) Option {
	return func(s *settings) { s.timeout = d }
}

// Cache shares a solver memo cache across Runs (nil = fresh per Run),
// e.g. across the directories of a Table 1 sweep.
func Cache(c *solver.Cache) Option {
	return func(s *settings) { s.cache = c }
}

// Observe builds a tracer over the given sinks (a JSONL writer, a ring
// buffer, a metrics registry, …): a Run emits per-task spans, watchdog
// abandons, retries, store traffic and — labelled per task — every
// exploration, solver and memory-model event; a Check emits one theorem
// event per vertex. All-nil sinks leave observation disabled, so
// flag-gated sinks can be passed unconditionally.
func Observe(sinks ...obs.Sink) Option {
	return func(s *settings) { s.tracer = obs.NewTracer(sinks...) }
}

// Retry re-schedules lifts that end in StatusPanic or StatusDeadline —
// the statuses infrastructure faults produce; a spent step budget
// (StatusTimeout) is deterministic and never retried — under the given
// policy. Every lift is context-free and starts from the same initial
// state, so a retry can only reproduce the outcome or replace a fault with
// the real result; lifts that exhaust the policy are quarantined on the
// Summary. The zero policy disables retrying.
func Retry(p RetryPolicy) Option {
	return func(s *settings) { s.retry = p }
}

// WithStore makes the run incremental: before lifting, each task is
// looked up in the store by the hash of its own code bytes, its resolved
// configuration and the lifter version; a hit decodes the cached graphs
// (and re-validates the hash of every instruction range they depend on
// against the task's image) instead of exploring, and a miss lifts as
// usual and writes the result back when hgstore.Storable allows.
// Summary.StoreHits / StoreMisses count the split; a fully warm run
// performs zero lifts. Summary.StoreWriteErrors counts results the store
// failed to write back.
func WithStore(st *Store) Option {
	return func(s *settings) { s.store = st }
}

// Faults installs a deterministic fault injector, consulted at the start
// of every lift attempt (tests and the CI fault-injection smoke job;
// production runs never set it).
func Faults(inj *faultinject.Injector) Option {
	return func(s *settings) { s.faults = inj }
}

// JoinCodePointers joins states holding different code-pointer immediates
// on every request (ablation: loses indirection resolution).
func JoinCodePointers() Option {
	return func(s *settings) { s.joinCodePointers = true }
}

// PointerFacts enables the pointer-analysis pre-pass on every request: a
// per-function fact table of proven region relations and separation
// hypotheses is computed before exploring, answering comparisons without
// the decision procedure and without forking the memory model. The
// hypotheses a lift rests on are in its graph's assumption list, which is
// all Check needs to prove the graph.
func PointerFacts() Option {
	return func(s *settings) { s.facts = true }
}

func resolve(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// config resolves the lifter configuration a request runs under: its own
// override or the default, with the run-wide JoinCodePointers and
// PointerFacts bits set. It runs once per task, and both the store key and
// the lift use its result, so a store entry is always keyed on the
// configuration that produced it.
func (s *settings) config(r Request) core.Config {
	cfg := core.DefaultConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	cfg.JoinCodePointers = cfg.JoinCodePointers || s.joinCodePointers
	cfg.PointerFacts = cfg.PointerFacts || s.facts
	return cfg
}

// One lifts a single request and returns its result directly.
func One(ctx context.Context, req Request, opts ...Option) Result {
	return Run(ctx, []Request{req}, opts...).Results[0]
}

// Check runs Step 2 on one lifted graph: every vertex's Hoare triple is
// re-verified independently against the image's bytes, fanned out over
// Jobs workers. It is the one place that fixes Step 2's semantic
// configuration — the default machine, which assumes the separations the
// graph's assumption list holds and no others — so every command checks
// under the same one, and a graph checks the same in the process that
// lifted it and after a round trip through a file. Check honours Jobs and
// Observe and ignores the lifting options. Cancelling ctx reports
// the theorems not yet checked as Skipped, so a cancelled report never
// claims AllProven.
func Check(ctx context.Context, img *image.Image, g *hoare.Graph, opts ...Option) *triple.Report {
	s := resolve(opts)
	jobs := s.jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return triple.Check(ctx, img, g, sem.DefaultConfig(), triple.Workers(jobs), triple.WithTracer(s.tracer))
}
