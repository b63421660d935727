// Package lift is the unified front door to the lifting pipeline. It
// replaces the three fragmented entry surfaces that grew organically —
// core.Config for the lifter, pipeline.Task/pipeline.Options for the
// scheduler, and ad-hoc tracer/metrics wiring — with one request type and
// one functional-option set, threaded end to end by a context.Context:
//
//	metrics := obs.NewMetrics()
//	sum := lift.Run(ctx, lift.Requests(
//	        lift.Binary("a.elf", imgA),
//	        lift.Func("strlen", imgB, 0x401000),
//	    ),
//	    lift.Jobs(8),
//	    lift.Timeout(30*time.Second),
//	    lift.Observe(metrics),
//	)
//
// Cancelling ctx stops in-flight lifts cooperatively (they report
// core.StatusCancelled) and skips tasks not yet started; the per-lift
// Timeout is a deadline on the same context, so the two budgets share one
// mechanism. The old context-less entrypoints (pipeline.Run,
// core.Lifter.LiftFunc, core.Lifter.LiftBinary, triple.CheckGraph) have
// been deleted; all lifting flows through this package.
//
// One persistence surface composes with a Run: WithStore(st) makes
// lifting incremental. Lifted Hoare graphs are cached content-addressed by
// (code bytes, config, lifter version), so a re-run over an unchanged
// corpus decodes graphs instead of lifting them, and editing one function
// re-lifts only that function. The store is also how an interrupted run
// resumes: re-run it against the same store, and only what the store does
// not keep lifts again — the tasks that never finished, panics,
// quarantines and wall-clock timeouts.
package lift

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/solver"
)

// Aliases for the result types a Run produces, so facade users need not
// import the scheduler package.
type (
	// Summary aggregates a Run (deterministic in the inputs).
	Summary = pipeline.Summary
	// Result is the outcome of one scheduled lift.
	Result = pipeline.Result
	// Stats is the per-lift statistics record.
	Stats = pipeline.Stats
	// RetryPolicy tunes the rescheduling of faulted lifts (see Retry).
	RetryPolicy = pipeline.RetryPolicy
	// Store is a content-addressed cache of lifted Hoare graphs (see
	// WithStore and OpenStore).
	Store = hgstore.Store
)

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

// Requests collects its arguments — a literal-friendly alternative to
// building the slice by hand.
func Requests(reqs ...Request) []Request { return reqs }

// WithMaxStates returns a copy of the request with a per-request step
// budget (corpus units carry their own).
func (r Request) WithMaxStates(n int) Request {
	cfg := core.DefaultConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	cfg.MaxStates = n
	r.Config = &cfg
	return r
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
			r = r.WithMaxStates(u.Budget)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// settings is the resolved option set of one Run.
type settings struct {
	popts   pipeline.Options
	baseCfg core.Config
	cfgMod  bool
}

// Option tunes a Run (functional options over the unified settings).
type Option func(*settings)

// Jobs sets the worker count (≤ 0 selects all CPUs).
func Jobs(n int) Option {
	return func(s *settings) { s.popts.Jobs = n }
}

// Timeout sets the per-lift wall-clock budget, enforced as a context
// deadline checked at every exploration step plus a watchdog for lifts
// that stop stepping entirely.
func Timeout(d time.Duration) Option {
	return func(s *settings) { s.popts.Timeout = d }
}

// Cache shares a solver memo cache across Runs (nil = fresh per Run).
func Cache(c *solver.Cache) Option {
	return func(s *settings) { s.popts.Cache = c }
}

// Tracer observes the run with an existing tracer.
func Tracer(t *obs.Tracer) Option {
	return func(s *settings) { s.popts.Tracer = t }
}

// Observe builds a tracer over the given sinks (a JSONL writer, a ring
// buffer, a metrics registry, …); all-nil sinks leave observation
// disabled, so flag-gated sinks can be passed unconditionally.
func Observe(sinks ...obs.Sink) Option {
	return func(s *settings) { s.popts.Tracer = obs.NewTracer(sinks...) }
}

// Retry re-schedules lifts that end in StatusPanic or StatusTimeout —
// the statuses infrastructure faults produce — under the given policy.
// Every lift is context-free and starts from the same initial state, so a
// retry can only reproduce the outcome or replace a fault with the real
// result; lifts that exhaust the policy are quarantined on the Summary.
func Retry(p RetryPolicy) Option {
	return func(s *settings) { s.popts.Retry = p }
}

// WithStore makes the run incremental: before lifting, each task is
// looked up in the store by the hash of its own code bytes, its resolved
// configuration and the lifter version; a hit decodes the cached graphs
// (and re-validates the hash of every instruction range they depend on
// against the task's image) instead of exploring, and a miss lifts as
// usual and writes the result back. Summary.StoreHits / StoreMisses count
// the split; a fully warm run performs zero lifts. Summary.StoreWriteErrors
// counts results the store failed to write back.
func WithStore(st *Store) Option {
	return func(s *settings) { s.popts.Store = st }
}

// Faults installs a deterministic fault injector, consulted at the start
// of every lift attempt (tests and the CI fault-injection smoke job;
// production runs never set it).
func Faults(inj *faultinject.Injector) Option {
	return func(s *settings) { s.popts.Faults = inj }
}

// Lint runs the hglint static analyzer over every successfully lifted
// graph, through the run's shared solver cache; reports land on each
// Result and diagnostics on the tracer as lint events.
func Lint() Option {
	return func(s *settings) { s.popts.Lint = true }
}

// MaxStates bounds per-function exploration for every request without its
// own Config.
func MaxStates(n int) Option {
	return func(s *settings) { s.baseCfg.MaxStates = n; s.cfgMod = true }
}

// NoJoin disables state joining (ablation: every visit explores a fresh
// state).
func NoJoin() Option {
	return func(s *settings) { s.baseCfg.NoJoin = true; s.cfgMod = true }
}

// JoinCodePointers joins states holding different code-pointer immediates
// (ablation: loses indirection resolution).
func JoinCodePointers() Option {
	return func(s *settings) { s.baseCfg.JoinCodePointers = true; s.cfgMod = true }
}

// PointerFacts enables the pointer-analysis pre-pass on every request: a
// per-function fact table of proven region relations and separation
// hypotheses is computed before exploring, answering comparisons without
// the decision procedure and without forking the memory model. Set at the
// run level (pipeline.Options) so it also folds into per-request Config
// overrides and the store's configuration fingerprint.
func PointerFacts() Option {
	return func(s *settings) { s.popts.PointerFacts = true }
}

// Config replaces the base lifter configuration outright for every
// request without its own override.
func Config(cfg core.Config) Option {
	return func(s *settings) { s.baseCfg = cfg; s.cfgMod = true }
}

func resolve(opts []Option) settings {
	s := settings{baseCfg: core.DefaultConfig()}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// Run lifts every request through the scheduler and aggregates the
// outcomes. Results are in request order and every counter is summed in
// that order, so a Summary is deterministic in the inputs regardless of
// Jobs.
func Run(ctx context.Context, reqs []Request, opts ...Option) *Summary {
	s := resolve(opts)
	tasks := make([]pipeline.Task, len(reqs))
	for i, r := range reqs {
		cfg := r.Config
		if cfg == nil && s.cfgMod {
			c := s.baseCfg
			cfg = &c
		}
		tasks[i] = pipeline.Task{
			Name:   r.Name,
			Img:    r.Img,
			Addr:   r.Addr,
			Binary: r.IsBin,
			Cfg:    cfg,
		}
	}
	return pipeline.RunCtx(ctx, tasks, s.popts)
}

// One lifts a single request and returns its result directly.
func One(ctx context.Context, req Request, opts ...Option) Result {
	return Run(ctx, []Request{req}, opts...).Results[0]
}
