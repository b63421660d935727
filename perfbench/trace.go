package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/ptr"
	"repro/internal/x86"
	"repro/lift"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Task   string `json:"task,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 18

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its ID; a zero end leaves it open for end.
func (r *recorder) add(name, task string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	s := span{ID: len(r.spans) + 1, Parent: parent, Name: name, Task: task, Start: int64(start.Sub(r.t0))}
	if !end.IsZero() {
		s.End = int64(end.Sub(r.t0))
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes an open span.
func (r *recorder) end(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.t0))
	r.mu.Unlock()
}

// write saves the spans as JSONL.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memSample is the Go runtime's allocation and GC state at one instant.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // cumulative GC CPU seconds
	allCPU     float64 // cumulative CPU seconds of the process
	intern     expr.InternStats
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (m *memSample) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.totalAlloc, m.numGC = ms.TotalAlloc, ms.NumGC
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	m.intern = expr.TableStats()
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = samples[0].Value.Float64()
		m.allCPU = samples[1].Value.Float64()
	}
}

// ledgerInput carries what a traced round measured in its timed part.
type ledgerInput struct {
	proofs
	openWall time.Duration
	mem      [2]memSample // at the round's start and end
}

// ledger computes one traced round's per-layer metrics. It first makes the
// calls the benchmark times from outside without changing the round's
// result — ptr.Analyze on every unit and x86.Decode over every lifted
// instruction — then reads the lifter's own counters and histograms.
func (f *fixture) ledger(units []*corpus.Unit, sum *lift.Summary, m *obs.Metrics, walls *taskWalls, rec *recorder, roundID int, in ledgerInput) map[string]float64 {
	l := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// ptr: the pre-pass the default configuration does not run.
	var ptrWall time.Duration
	var facts int
	for _, u := range units {
		t0 := time.Now()
		an := ptr.Analyze(u.Image, u.FuncAddr)
		t1 := time.Now()
		rec.add("ptr.Analyze", u.Name, roundID, t0, t1)
		ptrWall += t1.Sub(t0)
		facts += an.Stats.Proven + an.Stats.Hypotheses
	}
	l["ptr.analyze_ms"] = ms(ptrWall)
	l["ptr.facts"] = float64(facts)

	// x86: re-decode the bytes of every instruction in the produced graphs.
	var decWall time.Duration
	var instrs int
	for i, r := range sum.Results {
		for _, fr := range resultGraphs(r) {
			t0 := time.Now()
			for addr, inst := range fr.Graph.Instrs {
				b, ok := units[i].Image.File().ReadAt(addr, inst.Len)
				if !ok {
					continue
				}
				if _, err := x86.Decode(b, addr); err == nil {
					instrs++
				}
			}
			t1 := time.Now()
			rec.add("x86.Decode", fr.Name, roundID, t0, t1)
			decWall += t1.Sub(t0)
		}
	}
	l["x86.instrs"] = float64(instrs)
	l["x86.decode_ns_per_instr"] = per(float64(decWall), float64(instrs))

	// core: the lifts this round performed (store hits replay statistics
	// and are not work done).
	var liftWall, putWall time.Duration
	var lifted lift.Stats
	timeouts := 0
	for _, r := range sum.Results {
		if r.Status == core.StatusTimeout {
			timeouts++
		}
		if r.FromStore {
			continue
		}
		lifted.Add(r.Stats)
		liftWall += r.Stats.Wall
		if f.w.store {
			putWall += walls.m[r.Name] - r.Stats.Wall
		}
	}
	l["core.lift_ms"] = ms(liftWall)
	l["core.states"] = float64(lifted.Graph.States)
	l["core.joins"] = float64(lifted.Graph.Joins)
	l["core.edges"] = float64(lifted.Graph.Edges)
	l["core.instrs"] = float64(lifted.Graph.Instructions)
	l["core.timeouts"] = float64(timeouts)
	l["core.states_per_s"] = per(float64(lifted.Graph.States), liftWall.Seconds())

	cs := sum.Cache.Stats()
	l["solver.queries"] = float64(lifted.Sem.SolverQueries)
	l["solver.hit_frac"] = cs.HitRate()
	l["solver.cache_entries"] = float64(cs.Entries)

	l["memmodel.forks"] = float64(lifted.Sem.Forks)
	l["memmodel.destroys"] = float64(lifted.Sem.Destroys)
	l["memmodel.fallbacks"] = float64(lifted.Sem.Fallbacks)
	l["ptr.fact_hits"] = float64(lifted.Sem.FactHits)

	diags := 0
	for _, rep := range in.lints {
		diags += len(rep.Diagnostics)
	}
	l["hglint.ms"] = ms(in.lintWall)
	l["hglint.graphs"] = float64(in.graphs)
	l["hglint.diagnostics"] = float64(diags)

	l["triple.ms"] = ms(in.checkWall)
	l["triple.theorems"] = float64(in.theorems)
	l["triple.failed"] = float64(in.failed)
	l["triple.skipped"] = float64(in.skip)
	l["triple.theorems_per_s"] = per(float64(in.theorems), in.checkWall.Seconds())

	counters := m.CounterSnapshot()
	decode := m.Histogram("store.decode.wall").Sum()
	l["hgstore.hits"] = float64(counters["store.hits"])
	l["hgstore.misses"] = float64(counters["store.misses"])
	l["hgstore.decode_ms"] = ms(decode)
	l["hgstore.open_ms"] = ms(in.openWall)
	// A write-through Put rewrites and syncs the whole container: one flush
	// per write, timed as the task's wall minus its lift.
	l["hgstore.flushes"] = float64(counters["store.writes"])
	l["hgstore.flush_ms"] = ms(putWall)
	if f.w.store {
		if fi, err := os.Stat(f.path); err == nil {
			l["hgstore.container_mb"] = float64(fi.Size()) / (1 << 20)
		}
	}

	taskWall := m.Histogram("task.wall").Sum()
	l["pipeline.busy_frac"] = per(float64(taskWall), float64(f.jobs)*float64(sum.Wall))

	// Busy time per layer, summed over the goroutines that did it; Step 2
	// keeps every worker busy for the wall time of each check.
	busy := map[string]time.Duration{
		"core":    liftWall,
		"hglint":  in.lintWall,
		"triple":  in.checkWall * time.Duration(f.jobs),
		"hgstore": in.openWall + decode + putWall,
	}
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	for name, d := range busy {
		l[name+".share"] = per(float64(d), float64(total))
	}

	g0, g1 := in.mem[0], in.mem[1]
	hits, misses := g1.intern.Hits-g0.intern.Hits, g1.intern.Misses-g0.intern.Misses
	l["expr.intern_entries"] = float64(g1.intern.Entries)
	l["expr.intern_hit_frac"] = per(float64(hits), float64(hits+misses))
	l["go.alloc_mb"] = float64(g1.totalAlloc-g0.totalAlloc) / (1 << 20)
	l["go.gc_cycles"] = float64(g1.numGC - g0.numGC)
	l["go.gc_cpu_frac"] = per(g1.gcCPU-g0.gcCPU, g1.allCPU-g0.allCPU)
	return l
}
