package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracer calls every emission helper on a nil tracer: the disabled
// tracer must be safe (and do nothing) everywhere it is threaded.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.WithLift("x") != nil {
		t.Fatal("WithLift on nil tracer must stay nil")
	}
	tr.Emit(Event{Kind: KStep})
	tr.TaskStart("t")
	tr.TaskFinish("t", "lifted", time.Second)
	tr.Watchdog("t", time.Second)
	tr.LiftStart("f", 1)
	tr.LiftFinish("f", 1, "lifted", 3, time.Second)
	tr.Step(1)
	tr.Join(1, "v")
	tr.Fork(1, 2)
	tr.Destroy(1)
	tr.Solver(1, true)
	tr.Obligation(1, "ob")
	tr.Theorem("f", "v", 1, "proven")
	tr.Fallback(1)
	tr.PtrAnalyze("f", 1, 2, 3, time.Second)
	tr.FactHit(1)
}

// TestNewTracerDropsNilSinks checks that optional sinks can be passed
// unconditionally: all-nil sinks yield the disabled tracer.
func TestNewTracerDropsNilSinks(t *testing.T) {
	if NewTracer() != nil || NewTracer(nil, nil) != nil {
		t.Fatal("sink-less tracer must be nil (disabled)")
	}
	r := NewRing(4)
	tr := NewTracer(nil, r, nil)
	if tr == nil {
		t.Fatal("tracer with a real sink must be enabled")
	}
	tr.Step(7)
	if got := r.Events(); len(got) != 1 || got[0].Kind != KStep || got[0].Addr != 7 {
		t.Fatalf("ring saw %+v", got)
	}
}

// TestWithLiftLabels checks that WithLift labels events without touching
// the parent tracer.
func TestWithLiftLabels(t *testing.T) {
	r := NewRing(8)
	tr := NewTracer(r)
	tr.Step(1)
	tr.WithLift("task-a").Step(2)
	tr.Step(3)
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Lift != "" || ev[1].Lift != "task-a" || ev[2].Lift != "" {
		t.Fatalf("labels: %q %q %q", ev[0].Lift, ev[1].Lift, ev[2].Lift)
	}
}

// TestRingWraparound fills a ring past capacity and checks eviction order
// and the dropped counter.
func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		r.Emit(Event{Kind: KStep, Addr: i})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	for i, want := range []uint64{3, 4, 5} {
		if ev[i].Addr != want {
			t.Fatalf("event %d addr = %d, want %d", i, ev[i].Addr, want)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

// TestJSONL decodes the emitted lines and checks field round-tripping.
func TestJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	tr := NewTracer(j).WithLift("task-1")
	tr.Fork(0x400100, 2)
	tr.Solver(0x400104, true)
	tr.LiftFinish("f", 0x400100, "lifted", 9, 3*time.Millisecond)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec struct {
		T    time.Time `json:"t"`
		K    string    `json:"k"`
		Lift string    `json:"lift"`
		Addr uint64    `json:"addr"`
		N    uint64    `json:"n"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.K != "fork" || rec.Lift != "task-1" || rec.Addr != 0x400100 || rec.N != 2 || rec.T.IsZero() {
		t.Fatalf("decoded %+v", rec)
	}
	for _, line := range lines {
		var any map[string]any
		if err := json.Unmarshal([]byte(line), &any); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}

// TestMetricsAggregation feeds a fixed event stream and checks every
// derived counter and the histogram.
func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	tr := NewTracer(m)
	tr.Step(1)
	tr.Step(2)
	tr.Join(2, "v")
	tr.Fork(3, 2)
	tr.Destroy(3)
	tr.Solver(4, false)
	tr.Solver(4, true)
	tr.Obligation(5, "ob")
	tr.LiftFinish("f", 1, "lifted", 2, time.Millisecond)
	tr.TaskFinish("t", "timeout", time.Second)
	tr.Watchdog("t", time.Second)
	tr.Theorem("f", "v", 1, "proven")
	tr.Fallback(3)
	tr.PtrAnalyze("f", 1, 5, 2, time.Millisecond)
	tr.FactHit(4)
	tr.FactHit(4)

	want := map[string]uint64{
		"explore.steps":      2,
		"explore.joins":      1,
		"memmodel.fork":      2,
		"memmodel.destroy":   1,
		"memmodel.fallback":  1,
		"solver.queries":     2,
		"solver.hits":        1,
		"obligations":        1,
		"lift.lifted":        1,
		"task.timeout":       1,
		"watchdog.abandoned": 1,
		"theorem.proven":     1,
		"ptr.analyses":       1,
		"ptr.facts":          5,
		"ptr.hypotheses":     2,
		"ptr.hits":           2,
	}
	got := m.CounterSnapshot()
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if h := m.Histogram("lift.wall"); h.Count() != 1 || h.Sum() != time.Millisecond {
		t.Fatalf("lift.wall count=%d sum=%s", h.Count(), h.Sum())
	}
	dump := m.Dump()
	if !strings.Contains(dump, "explore.steps") || !strings.Contains(dump, "lift.wall") {
		t.Fatalf("dump missing sections:\n%s", dump)
	}
}

// TestMetricsServeEvents covers the daemon's slice of the taxonomy:
// admission, rejection and completion counters plus the request-latency
// histogram, and the store-flush event the buffered write mode emits.
func TestMetricsServeEvents(t *testing.T) {
	m := NewMetrics()
	tr := NewTracer(m)
	tr.ServeAdmit("r1", "alice", 1)
	tr.ServeAdmit("r2", "bob", 2)
	tr.ServeReject("r3", "bob", "queue full")
	tr.ServeDone("r1", "alice", "ok", 3*time.Millisecond)
	tr.ServeDone("r2", "bob", "cancelled", time.Millisecond)
	tr.StoreFlush(42, time.Millisecond)

	want := map[string]uint64{
		"serve.admitted":       2,
		"serve.rejected":       1,
		"serve.done.ok":        1,
		"serve.done.cancelled": 1,
		"store.flushes":        1,
	}
	got := m.CounterSnapshot()
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if h := m.Histogram("serve.request.wall"); h.Count() != 2 || h.Sum() != 4*time.Millisecond {
		t.Fatalf("serve.request.wall count=%d sum=%s", h.Count(), h.Sum())
	}
	if h := m.Histogram("store.flush.wall"); h.Count() != 1 {
		t.Fatalf("store.flush.wall count=%d", h.Count())
	}
}

// TestMetricsDumpDeterministic replays the same stream into two
// registries and requires byte-identical counter sections.
func TestMetricsDumpDeterministic(t *testing.T) {
	stream := []Event{
		{Kind: KStep, Addr: 1}, {Kind: KFork, Addr: 2, N: 3},
		{Kind: KSolver, Addr: 3}, {Kind: KObligation, Addr: 4, Detail: "ob"},
		{Kind: KTheorem, Status: "proven"},
	}
	dump := func() string {
		m := NewMetrics()
		for _, e := range stream {
			m.Emit(e)
		}
		return m.Dump()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatalf("dumps differ:\n%s\nvs\n%s", a, b)
	}
}

// TestMetricsConcurrent hammers one registry from several goroutines —
// the -race regression for the registry's get-or-create path.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Emit(Event{Kind: KStep})
				m.Emit(Event{Kind: KSolver, Hit: i%2 == 0})
				m.Histogram("lift.wall").Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("explore.steps").Load(); got != 8*500 {
		t.Fatalf("explore.steps = %d, want %d", got, 8*500)
	}
	if got := m.Counter("solver.hits").Load(); got != 8*250 {
		t.Fatalf("solver.hits = %d, want %d", got, 8*250)
	}
}

// TestHistogramBuckets checks bucket placement at the bounds.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)     // first bucket (≤1µs)
	h.Observe(3 * time.Microsecond) // ≤4µs bucket
	h.Observe(time.Hour)            // overflow
	if h.counts[0].Load() != 1 {
		t.Fatalf("≤1µs bucket = %d", h.counts[0].Load())
	}
	if h.counts[2].Load() != 1 {
		t.Fatalf("≤4µs bucket = %d", h.counts[2].Load())
	}
	if h.counts[len(histBuckets)].Load() != 1 {
		t.Fatalf("overflow bucket = %d", h.counts[len(histBuckets)].Load())
	}
	if !strings.Contains(h.dump(), "count=3") {
		t.Fatalf("dump: %s", h.dump())
	}
}
