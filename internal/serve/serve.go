// Package serve is the lifting-as-a-service engine behind cmd/hgserved:
// an HTTP/JSON front end over the repro/lift facade. Clients POST ELF
// binaries (single or batch) to /v1/lift; the engine schedules the lifts
// on internal/pipeline and streams progress, per-task verdicts and a
// final canonical summary back as NDJSON.
//
// Admission is bounded on two axes. Globally, at most Parallel
// submissions run pipelines concurrently and at most QueueDepth more may
// wait for a slot; per tenant, at most TenantShare submissions may be in
// the building at once, so one aggressive client cannot monopolise the
// queue. A submission over either bound is rejected immediately with
// 429 and a Retry-After hint derived from the recent request-latency
// EWMA — the queue never grows without bound.
//
// Deduplication is the content-addressed Hoare-graph store: every run
// goes through Options.Store (lookup-before-lift in the pipeline), so a
// duplicate submission is answered entirely from cache — zero lifts, and
// a summary whose Canonical rendering is byte-identical to the original
// run's. The engine owns the store's flush cycle: it switches the store
// to buffered mode and flushes after each submission that added entries,
// plus exactly once at Shutdown. Because the store's flush reads what
// other writers appended before it appends, under a file lock (see
// internal/hgstore), other processes — a CLI hglift -store run, a second
// daemon — may share the same container concurrently without losing
// entries.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/lift"
)

// Options configures an Engine.
type Options struct {
	// Store is the shared Hoare-graph cache (nil disables dedup). The
	// engine switches it to buffered mode and owns its flush cycle.
	Store *hgstore.Store
	// Sinks observe every event of the daemon and its runs (a JSONL
	// trace, a ring); the engine's Metrics registry is always appended.
	Sinks []obs.Sink
	// Metrics is the /metricz registry (nil = a fresh one).
	Metrics *obs.Metrics
	// Parallel bounds concurrent pipeline runs (default 2).
	Parallel int
	// QueueDepth bounds submissions waiting for a run slot (default 8);
	// beyond Parallel+QueueDepth admissions the engine answers 429.
	QueueDepth int
	// TenantShare bounds waiting+running submissions per tenant
	// (default: half the total capacity, at least 1).
	TenantShare int
	// Jobs is the pipeline worker count per run (≤ 0 = all CPUs).
	Jobs int
	// Timeout is the per-lift wall-clock budget (0 = none).
	Timeout time.Duration
	// MaxBody caps the submission body size (default 64 MiB).
	MaxBody int64
	// Faults is the deterministic fault injector threaded into every
	// run (tests only; production leaves it nil).
	Faults *faultinject.Injector
}

// Engine schedules submissions and serves the HTTP API.
type Engine struct {
	opts    Options
	store   *hgstore.Store
	metrics *obs.Metrics
	sinks   []obs.Sink  // request sinks: opts.Sinks + metrics
	tr      *obs.Tracer // daemon-level tracer over sinks
	slots   chan struct{}

	baseCtx context.Context
	cancel  context.CancelFunc

	mu        sync.Mutex
	admitted  int
	perTenant map[string]int
	ewmaNS    float64
	reqSeq    int
	closed    bool
	dirty     bool // the store holds unflushed entries

	wg        sync.WaitGroup
	flushOnce sync.Once
	flushErr  error
}

// New builds an engine. When Options.Store is set it is switched to
// buffered flushes; the engine (and only the engine, within this
// process) persists it — after each submission that added entries and
// once at Shutdown.
func New(opts Options) *Engine {
	if opts.Parallel <= 0 {
		opts.Parallel = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.TenantShare <= 0 {
		opts.TenantShare = (opts.Parallel + opts.QueueDepth) / 2
		if opts.TenantShare < 1 {
			opts.TenantShare = 1
		}
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 64 << 20
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewMetrics()
	}
	if opts.Store != nil {
		opts.Store.SetAutoFlush(false)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sinks := append(append([]obs.Sink{}, opts.Sinks...), opts.Metrics)
	return &Engine{
		opts:      opts,
		store:     opts.Store,
		metrics:   opts.Metrics,
		sinks:     sinks,
		tr:        obs.NewTracer(sinks...),
		slots:     make(chan struct{}, opts.Parallel),
		baseCtx:   ctx,
		cancel:    cancel,
		perTenant: map[string]int{},
	}
}

// Handler returns the engine's HTTP API:
//
//	POST /v1/lift  — submit a batch, stream NDJSON back
//	GET  /metricz  — the metrics registry, rendered as text
//	GET  /healthz  — "ok" while accepting work, 503 once shutting down
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lift", e.handleLift)
	mux.HandleFunc("GET /metricz", e.handleMetricz)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	return mux
}

// Shutdown stops the engine: new submissions are rejected with 503,
// in-flight pipeline runs are cancelled (their unfinished lifts report
// StatusCancelled and every open NDJSON stream still ends with its
// result and summary lines), and — after the last run drains — the
// store is flushed exactly once. The context bounds the drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	e.flushOnce.Do(func() {
		if e.store == nil {
			return
		}
		e.mu.Lock()
		e.dirty = false
		e.mu.Unlock()
		start := time.Now()
		if e.flushErr = e.store.Flush(); e.flushErr == nil {
			e.tr.StoreFlush(e.store.Len(), time.Since(start))
		}
	})
	return e.flushErr
}

// rejection describes a refused admission.
type rejection struct {
	code   int // http.StatusTooManyRequests or http.StatusServiceUnavailable
	reason string
	after  int // Retry-After seconds (429 only)
}

// admit reserves capacity for one submission; the caller must release.
func (e *Engine) admit(tenant string) (id string, rej *rejection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return "", &rejection{code: http.StatusServiceUnavailable, reason: "shutting down"}
	}
	capacity := e.opts.Parallel + e.opts.QueueDepth
	if e.admitted >= capacity {
		return "", &rejection{code: http.StatusTooManyRequests, reason: "queue full", after: e.retryAfterLocked()}
	}
	if e.perTenant[tenant] >= e.opts.TenantShare {
		return "", &rejection{code: http.StatusTooManyRequests, reason: "tenant share exhausted", after: e.retryAfterLocked()}
	}
	e.admitted++
	e.perTenant[tenant]++
	e.reqSeq++
	e.wg.Add(1)
	return fmt.Sprintf("r%04d", e.reqSeq), nil
}

// release returns a submission's capacity and folds its latency into the
// EWMA the Retry-After hint is derived from.
func (e *Engine) release(tenant string, wall time.Duration) {
	e.mu.Lock()
	e.admitted--
	if e.perTenant[tenant]--; e.perTenant[tenant] <= 0 {
		delete(e.perTenant, tenant)
	}
	const alpha = 0.3
	if e.ewmaNS == 0 {
		e.ewmaNS = float64(wall)
	} else {
		e.ewmaNS = alpha*float64(wall) + (1-alpha)*e.ewmaNS
	}
	e.mu.Unlock()
	e.wg.Done()
}

// retryAfterLocked estimates when capacity will free up: the latency
// EWMA scaled by how many queued submissions precede a retry, clamped to
// [1s, 60s]. Callers hold e.mu.
func (e *Engine) retryAfterLocked() int {
	waiting := e.admitted - e.opts.Parallel
	if waiting < 0 {
		waiting = 0
	}
	est := e.ewmaNS * float64(waiting+1) / float64(e.opts.Parallel)
	secs := int(math.Ceil(est / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (e *Engine) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, e.metrics.Dump())
}

// reject writes a 429/503 JSON body (and Retry-After header for 429).
func reject(w http.ResponseWriter, rej *rejection) {
	w.Header().Set("Content-Type", "application/json")
	body := RejectBody{Error: rej.reason}
	if rej.code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprint(rej.after))
		body.RetryAfterS = rej.after
	}
	w.WriteHeader(rej.code)
	json.NewEncoder(w).Encode(body)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(RejectBody{Error: fmt.Sprintf(format, args...)})
}

// parseSubmission decodes and validates one body into lift requests.
func parseSubmission(body []byte) (sub Submission, reqs []lift.Request, err error) {
	if err := json.Unmarshal(body, &sub); err != nil {
		return sub, nil, fmt.Errorf("bad JSON: %w", err)
	}
	if len(sub.Binaries) == 0 {
		return sub, nil, fmt.Errorf("empty submission: no binaries")
	}
	seen := map[string]bool{}
	for i, spec := range sub.Binaries {
		if spec.Name == "" {
			return sub, nil, fmt.Errorf("binary %d: missing name", i)
		}
		img, err := image.Load(spec.ELF)
		if err != nil {
			return sub, nil, fmt.Errorf("binary %q: %w", spec.Name, err)
		}
		add := func(name string, r lift.Request) error {
			if seen[name] {
				return fmt.Errorf("duplicate task name %q", name)
			}
			seen[name] = true
			reqs = append(reqs, r)
			return nil
		}
		if len(spec.Funcs) == 0 {
			if err := add(spec.Name, lift.Binary(spec.Name, img)); err != nil {
				return sub, nil, err
			}
			continue
		}
		for _, addr := range spec.Funcs {
			name := fmt.Sprintf("%s+%#x", spec.Name, addr)
			if err := add(name, lift.Func(name, img, addr)); err != nil {
				return sub, nil, err
			}
		}
	}
	return sub, reqs, nil
}

// streamSink writes task progress events as NDJSON lines while the
// pipeline runs. Pipeline workers emit concurrently, so every write is
// serialised and flushed line-atomically.
type streamSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	fl  http.Flusher
	err error
}

func newStreamSink(w http.ResponseWriter) *streamSink {
	s := &streamSink{enc: json.NewEncoder(w)}
	s.fl, _ = w.(http.Flusher)
	return s
}

func (s *streamSink) Emit(e obs.Event) {
	var ln Line
	switch e.Kind {
	case obs.KTaskStart:
		ln = Line{Type: LineTask, Name: e.Func, Event: "start"}
	case obs.KTaskFinish:
		ln = Line{Type: LineTask, Name: e.Func, Event: "finish", Status: e.Status, WallNS: int64(e.Wall)}
	case obs.KStore:
		switch e.Status {
		case "hit":
			ln = Line{Type: LineTask, Name: e.Func, Event: "store-hit"}
		case "miss":
			ln = Line{Type: LineTask, Name: e.Func, Event: "store-miss", Detail: e.Detail}
		default:
			return
		}
	default:
		return
	}
	s.write(ln)
}

func (s *streamSink) write(ln Line) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.err = s.enc.Encode(ln); s.err == nil && s.fl != nil {
		s.fl.Flush()
	}
}

func (e *Engine) handleLift(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, e.opts.MaxBody+1))
	if err != nil {
		badRequest(w, "reading body: %v", err)
		return
	}
	if int64(len(body)) > e.opts.MaxBody {
		badRequest(w, "body exceeds %d bytes", e.opts.MaxBody)
		return
	}
	sub, reqs, err := parseSubmission(body)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	tenant := sub.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}

	id, rej := e.admit(tenant)
	if rej != nil {
		e.tr.ServeReject(id, tenant, rej.reason)
		reject(w, rej)
		return
	}
	start := time.Now()
	outcome := "ok"
	defer func() {
		wall := time.Since(start)
		e.release(tenant, wall)
		e.tr.ServeDone(id, tenant, outcome, wall)
	}()
	e.mu.Lock()
	depth := e.admitted
	e.mu.Unlock()
	e.tr.ServeAdmit(id, tenant, depth)

	// The run must stop on client disconnect AND on engine shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(e.baseCtx, cancel)()

	// Queue: wait for one of the Parallel run slots.
	select {
	case e.slots <- struct{}{}:
		defer func() { <-e.slots }()
	case <-ctx.Done():
		outcome = "cancelled"
		reject(w, &rejection{code: http.StatusServiceUnavailable, reason: "cancelled while queued"})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sink := newStreamSink(w)
	tr := obs.NewTracer(append(append([]obs.Sink{}, e.sinks...), sink)...)

	opts := []lift.Option{
		lift.Jobs(e.opts.Jobs),
		lift.Tracer(tr),
	}
	if e.opts.Timeout > 0 {
		opts = append(opts, lift.Timeout(e.opts.Timeout))
	}
	if e.store != nil {
		opts = append(opts, lift.WithStore(e.store))
	}
	if e.opts.Faults != nil {
		opts = append(opts, lift.Faults(e.opts.Faults))
	}
	sum := lift.Run(ctx, reqs, opts...)

	for i := range sum.Results {
		res := &sum.Results[i]
		sink.write(Line{
			Type:      LineResult,
			Name:      res.Name,
			Status:    res.Status.String(),
			FromStore: res.FromStore,
			WallNS:    int64(res.Stats.Wall),
		})
	}
	sink.write(Line{
		Type:        LineSummary,
		Lifted:      sum.Lifted,
		Cancelled:   sum.Cancelled,
		Failed:      sum.Unprovable + sum.Concurrency + sum.Timeouts + sum.Errors + sum.Panics,
		StoreHits:   sum.StoreHits,
		StoreMisses: sum.StoreMisses,
		WallNS:      int64(sum.Wall),
		Canonical:   sum.Canonical(),
	})
	if sum.Cancelled > 0 {
		outcome = "cancelled"
	}

	// Misses mean fresh lifts were stored in memory: persist them, unless
	// the engine is shutting down — then the single Shutdown flush owns it.
	if e.store != nil && sum.StoreMisses > 0 {
		e.mu.Lock()
		e.dirty = true
		closed := e.closed
		e.mu.Unlock()
		if !closed {
			if err := e.flushStore(); err != nil {
				e.tr.StoreError(id, err)
			}
		}
	}
}

// flushStore persists buffered store entries if any are pending.
func (e *Engine) flushStore() error {
	e.mu.Lock()
	dirty := e.dirty
	e.dirty = false
	e.mu.Unlock()
	if !dirty || e.store == nil {
		return nil
	}
	start := time.Now()
	if err := e.store.Flush(); err != nil {
		return err
	}
	e.tr.StoreFlush(e.store.Len(), time.Since(start))
	return nil
}
