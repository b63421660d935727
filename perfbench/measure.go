package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed, corpusSeed int64
	seconds          float64
	traced           bool
	scale            float64 // multiplier on corpus sizes: 1, or tiny in the self-test
	jobs             int
}

// An untraced run sets up at least minSetups times and until it has spent
// minSetupTime setting up, at most maxSetups times; setup_s is the median.
// A set-up of a few milliseconds is then the median of many.
const (
	minSetups    = 3
	maxSetups    = 100
	minSetupTime = time.Second
)

// minBeyondTail is the number of samples a run keeps beyond the tail
// percentile before it stops.
const minBeyondTail = 10

// outcome is a finished run: the printed result, the deterministic counts
// compare checks between runs, the share of CPU time stolen while the
// rounds were measured, and the end-to-end times before the correction for
// it.
type outcome struct {
	result result
	counts map[string]uint64
	steal  float64
	raw    map[string]float64
}

// measure sets the workload up and runs rounds until the measured time is
// spent (and, untraced, until the tail percentile has enough samples
// beyond it). Untraced runs report the end-to-end metrics; traced runs
// alternate untraced and traced rounds and report the per-layer ledger.
func measure(ctx context.Context, w *workload, cfg runConfig) (*outcome, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	// The steal share is taken over all set-ups together: one set-up of a
	// few milliseconds spans too few /proc/stat ticks to measure it.
	var setups []float64
	var f *fixture
	setupClock := startStealClock()
	for f == nil || !cfg.traced && len(setups) < maxSetups && (len(setups) < minSetups || setupClock.elapsed() < minSetupTime) {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = setup(ctx, w, cfg, rec); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupKeep := 1 - setupClock.stolenShare()
	defer f.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, f.mix())

	// Untraced rounds run the edit sets in turn; a traced run runs each set
	// untraced and then traced, so the overhead compares equal work. A run
	// ends on a whole cycle of edit sets.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced []*roundResult
	var spent time.Duration
	clock := startStealClock()
	for {
		tracedTurn := cfg.traced && len(traced) < len(plain)
		roundRec, set := (*recorder)(nil), len(plain)%f.cycle()
		if tracedTurn {
			roundRec, set = rec, len(traced)%f.cycle()
		}
		r, err := f.round(ctx, roundRec, set)
		if err != nil {
			return nil, fmt.Errorf("%s: round: %w", w.name, err)
		}
		spent += r.wall
		if tracedTurn {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if len(plain)%f.cycle() != 0 || (cfg.traced && len(traced) < len(plain)) {
			continue
		}
		if spent >= budget && (cfg.traced || tailSamples(plain, w.tailPct) >= minBeyondTail) || spent > 4*budget {
			break
		}
	}
	// Times are reported as if the VM had kept its CPUs (see stealClock).
	keep := 1 - clock.stolenShare()
	fmt.Fprintf(os.Stderr, "perfbench: %s: hypervisor steal %.1f%% of CPU time while measuring\n", w.name, 100*(1-keep))

	out := &outcome{result: result{Correct: true, Metrics: map[string]metric{}}, steal: 1 - keep}
	all := append(append([]*roundResult(nil), plain...), traced...)
	for _, r := range all {
		ref, ok := f.refs[r.set]
		if !ok {
			f.refs[r.set] = r.counts
			ref = r.counts
		}
		if bad := countMismatches(ref, r.counts); len(bad) > 0 {
			out.result.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: deterministic counts differ between rounds of edit set %d: %s\n",
				w.name, r.set, strings.Join(bad, ", "))
		}
		for _, t := range r.tasks {
			out.result.Attempted++
			if t.failure != "" {
				out.result.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: task failed: %s\n", w.name, t.failure)
			}
		}
	}
	if out.result.Failed > 0 {
		out.result.Correct = false
	}
	// The run's counts fold every edit set's together, so they do not
	// depend on the order the seed gave the sets: counts add, digests xor.
	out.counts = map[string]uint64{}
	for _, c := range f.refs {
		for k, v := range c {
			if k == "summary.digest" {
				out.counts[k] ^= v
			} else {
				out.counts[k] += v
			}
		}
	}
	failedFrac := float64(out.result.Failed) / float64(out.result.Attempted)
	set := func(name, unit string, v float64) { out.result.Metrics[name] = metric{Value: v, Unit: unit} }
	if !cfg.traced {
		// Throughput is over the whole measured time, the window the steal
		// share was taken over.
		var lat, perRound []float64
		var tasks int
		var alloc uint64
		for _, r := range plain {
			for _, t := range r.tasks {
				lat = append(lat, float64(t.latency)/1e6)
			}
			perRound = append(perRound, float64(len(r.tasks))/r.wall.Seconds())
			tasks += len(r.tasks)
			alloc += r.alloc
		}
		sort.Float64s(lat)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d setups, median %.4g s, steal %.1f%%; uncorrected units/s by round: %s\n",
			w.name, len(setups), median(setups), 100*(1-setupKeep), quartiles(perRound))
		out.raw = map[string]float64{
			"setup_s":         median(setups),
			"units_per_s":     throughput(plain),
			"verdict_p50_ms":  percentile(lat, 50),
			"verdict_tail_ms": percentile(lat, w.tailPct),
		}
		set("setup_s", "s", setupKeep*out.raw["setup_s"])
		set("units_per_s", "1/s", out.raw["units_per_s"]/keep)
		set("verdict_p50_ms", "ms", keep*out.raw["verdict_p50_ms"])
		set("verdict_tail_ms", "ms", keep*out.raw["verdict_tail_ms"])
		set("alloc_mb_per_unit", "MB", float64(alloc)/(1<<20)/float64(tasks))
		set("peak_rss_mb", "MB", peakRSSMB())
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds, %d tasks, tail = p%g of %d samples\n",
			w.name, len(plain), tasks, w.tailPct, len(lat))
		return out, nil
	}

	// Per-layer ledger: the median over traced rounds of each value.
	for name, unit := range layerUnits {
		vals := make([]float64, len(traced))
		for i, r := range traced {
			vals[i] = r.layers[name]
		}
		set(name, unit, median(vals))
	}
	set("failed_frac", "frac", failedFrac)
	set("obs.overhead_frac", "frac", 1-throughput(traced)/throughput(plain))
	spans := filepath.Join(buildDir, "spans-"+w.name+".jsonl")
	if err := rec.write(spans); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d untraced + %d traced rounds, %d spans (%d dropped) in %s\n",
		w.name, len(plain), len(traced), len(rec.spans), rec.dropped, spans)
	return out, nil
}

// layerUnits names every per-layer metric a traced round computes, with its
// unit.
var layerUnits = map[string]string{
	"core.lift_ms": "ms", "core.states": "count", "core.joins": "count", "core.edges": "count",
	"core.instrs": "count", "core.timeouts": "count", "core.states_per_s": "1/s", "core.share": "frac",
	"solver.queries": "count", "solver.hit_frac": "frac", "solver.cache_entries": "count",
	"memmodel.forks": "count", "memmodel.destroys": "count", "memmodel.fallbacks": "count",
	"ptr.analyze_ms": "ms", "ptr.facts": "count", "ptr.fact_hits": "count",
	"x86.decode_ns_per_instr": "ns", "x86.instrs": "count",
	"hglint.ms": "ms", "hglint.graphs": "count", "hglint.diagnostics": "count", "hglint.share": "frac",
	"triple.ms": "ms", "triple.theorems": "count", "triple.failed": "count", "triple.skipped": "count",
	"triple.theorems_per_s": "1/s", "triple.share": "frac",
	"hgstore.hits": "count", "hgstore.misses": "count", "hgstore.decode_ms": "ms", "hgstore.open_ms": "ms",
	"hgstore.flushes": "count", "hgstore.flush_ms": "ms", "hgstore.container_mb": "MB", "hgstore.share": "frac",
	"pipeline.busy_frac":  "frac",
	"expr.intern_entries": "count", "expr.intern_hit_frac": "frac",
	"go.gc_cpu_frac": "frac", "go.gc_cycles": "count", "go.alloc_mb": "MB",
}

// throughput is tasks per second over a set of rounds.
func throughput(rs []*roundResult) float64 {
	var wall time.Duration
	tasks := 0
	for _, r := range rs {
		wall += r.wall
		tasks += len(r.tasks)
	}
	if wall == 0 {
		return 0
	}
	return float64(tasks) / wall.Seconds()
}

// tailSamples is the number of task latencies beyond percentile p.
func tailSamples(rs []*roundResult, p float64) int {
	n := 0
	for _, r := range rs {
		n += len(r.tasks)
	}
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// percentile interpolates linearly between the two closest ranks of sorted
// values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// stealClock measures elapsed time and the share of it the hypervisor
// took from this machine's CPUs. On a virtual machine other guests' load
// stops this one's CPUs for a share of the time that changes from minute
// to minute. Steal builds up only on a CPU that has work to run, so the
// share that slows the run is the stolen part of the time the CPUs wanted
// to run: steal / (steal + busy), from the counters of /proc/stat. Reported
// times are multiplied by (1 - share), the time the run would have taken
// had the VM kept its CPUs, so runs at different times compare; --out
// records keep the share and the uncorrected times, and compare judges
// both. Where /proc/stat is missing, the share is 0 and times are plain
// wall time.
type stealClock struct {
	start        time.Time
	busy, stolen float64
}

func startStealClock() stealClock {
	busy, stolen := cpuSeconds()
	return stealClock{start: time.Now(), busy: busy, stolen: stolen}
}

func (c stealClock) elapsed() time.Duration { return time.Since(c.start) }

// stolenShare is the share of the CPUs' wanted time stolen since the clock
// started, capped at one half.
func (c stealClock) stolenShare() float64 {
	busy, stolen := cpuSeconds()
	busy, stolen = busy-c.busy, stolen-c.stolen
	if busy+stolen <= 0 {
		return 0
	}
	return math.Min(math.Max(stolen/(busy+stolen), 0), 0.5)
}

// cpuSeconds is the CPU time this machine's CPUs have spent running
// (user, nice, system, irq and softirq) and the time the hypervisor took
// from them (steal), summed over the CPUs: the first line of /proc/stat, in
// USER_HZ (100/s) ticks.
func cpuSeconds() (busy, stolen float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var ticks [8]float64
	for i := range ticks {
		if ticks[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0
		}
	}
	// user nice system idle iowait irq softirq steal
	return (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) / 100, ticks[7] / 100
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
