package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
)

// numHistBuckets bounds the wall-time histogram: exponential buckets from
// 1µs doubling up to ~0.5s, plus one overflow bucket.
const numHistBuckets = 20

// histBuckets are the bucket upper bounds; the overflow bucket is +Inf.
var histBuckets = func() []time.Duration {
	b := make([]time.Duration, numHistBuckets)
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// Histogram counts durations into fixed exponential buckets. All fields
// are atomics, so concurrent lift workers observe without locking.
type Histogram struct {
	counts [numHistBuckets + 1]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(histBuckets), func(i int) bool { return d <= histBuckets[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// dump renders the non-empty buckets as "≤bound:count" pairs.
func (h *Histogram) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%s", h.n.Load(), h.Sum().Round(time.Microsecond))
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if i < len(histBuckets) {
			fmt.Fprintf(&b, " ≤%s:%d", histBuckets[i], c)
		} else {
			fmt.Fprintf(&b, " >%s:%d", histBuckets[len(histBuckets)-1], c)
		}
	}
	return b.String()
}

// Metrics is an atomic registry of named counters and wall-time
// histograms, and a Sink that aggregates the event stream into them. The
// counters it derives from events are sums of per-lift quantities that do
// not depend on scheduling, so — with the single exception of
// "solver.hits", which depends on the interleaving of concurrent misses
// on the shared memo cache — a corpus run aggregates to identical counter
// values at -jobs 1 and -jobs N. Histograms record wall times and are
// inherently timing-dependent.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Uint64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*atomic.Uint64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero.
func (m *Metrics) Counter(name string) *atomic.Uint64 {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &atomic.Uint64{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it empty.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Emit aggregates one event into the registry.
func (m *Metrics) Emit(e Event) {
	switch e.Kind {
	case KStep:
		m.Counter("explore.steps").Add(1)
	case KJoin:
		m.Counter("explore.joins").Add(1)
	case KFork:
		m.Counter("memmodel.fork").Add(e.N)
	case KDestroy:
		m.Counter("memmodel.destroy").Add(1)
	case KFallback:
		m.Counter("memmodel.fallback").Add(1)
	case KPtrAnalyze:
		m.Counter("ptr.analyses").Add(1)
		m.Counter("ptr.facts").Add(e.N)
		m.Counter("ptr.hypotheses").Add(e.Hits)
		m.Histogram("ptr.wall").Observe(e.Wall)
	case KFactHit:
		m.Counter("ptr.hits").Add(1)
	case KSolver:
		m.Counter("solver.queries").Add(1)
		if e.Hit {
			m.Counter("solver.hits").Add(1)
		}
	case KObligation:
		m.Counter("obligations").Add(1)
	case KLiftFinish:
		m.Counter("lift." + e.Status).Add(1)
		m.Histogram("lift.wall").Observe(e.Wall)
	case KTaskFinish:
		m.Counter("task." + e.Status).Add(1)
		m.Histogram("task.wall").Observe(e.Wall)
	case KWatchdog:
		m.Counter("watchdog.abandoned").Add(1)
	case KTheorem:
		m.Counter("theorem." + e.Status).Add(1)
	case KLint:
		m.Counter("lint." + e.Status).Add(1)
	case KRetry:
		m.Counter("task.retries").Add(1)
	case KQuarantine:
		m.Counter("task.quarantined").Add(1)
	case KStore:
		switch e.Status {
		case "hit":
			m.Counter("store.hits").Add(1)
			m.Counter("store.bytes").Add(e.N)
			m.Histogram("store.decode.wall").Observe(e.Wall)
		case "miss":
			m.Counter("store.misses").Add(1)
		case "write":
			m.Counter("store.writes").Add(1)
			m.Counter("store.bytes").Add(e.N)
		case "flush":
			m.Counter("store.flushes").Add(1)
			m.Histogram("store.flush.wall").Observe(e.Wall)
		default:
			m.Counter("store." + e.Status).Add(1)
		}
	case KServe:
		switch e.Status {
		case "admit":
			m.Counter("serve.admitted").Add(1)
		case "reject":
			m.Counter("serve.rejected").Add(1)
		default:
			m.Counter("serve.done." + e.Status).Add(1)
			m.Histogram("serve.request.wall").Observe(e.Wall)
		}
	}
}

// CounterSnapshot returns the current counter values by name.
func (m *Metrics) CounterSnapshot() map[string]uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]uint64, len(m.counters))
	for name, c := range m.counters {
		out[name] = c.Load()
	}
	return out
}

// Dump renders the registry as text: counters first, then the intern-table
// gauges, then histograms, each section sorted by name. Counter lines are
// deterministic in the workload (modulo solver.hits, see the type comment);
// the intern gauges read the process-global expression table live (they are
// not event-driven counters — emitting an event per interned node would
// swamp the trace — and are excluded from CounterSnapshot for the same
// reason); histogram lines report wall times and vary run to run.
func (m *Metrics) Dump() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-24s %d\n", name, m.counters[name].Load())
	}
	ist := expr.TableStats()
	fmt.Fprintf(&b, "%-24s %d\n", "intern.entries", ist.Entries)
	fmt.Fprintf(&b, "%-24s %d\n", "intern.hits", ist.Hits)
	hnames := make([]string, 0, len(m.hists))
	for name := range m.hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		fmt.Fprintf(&b, "%-24s %s\n", name, m.hists[name].dump())
	}
	return b.String()
}
