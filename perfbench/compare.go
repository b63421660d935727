package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparator and self-test read.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

func readBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain compares two result sets written with --out: the parent
// (BASE) and the change (NEW), run alternately with the same settings. For
// each workload and metric it prints both sides' medians and quartiles, the
// share of pairs the change won, and a verdict by the rules of a claim:
//
//   - improved: the change won at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile distance;
//   - worse: the change's median is worse than the parent's by more than the
//     bound (per-layer metrics, which have none: it lost 9 of 10 pairs by
//     more than the parent's spread);
//   - unresolved: either side's spread is wider than the bound, unless every
//     change run reads better than every parent run;
//   - no worse within bound: otherwise.
//
// An end-to-end time is corrected for the CPU time the hypervisor stole
// (see stealClock), and the correction is a model. So each such metric is
// judged twice, on the corrected and on the uncorrected values the records
// keep, and when the two verdicts differ the verdict is unresolved: the
// difference may be the two sides' steal, not the change. The median steal
// of each side is printed with each workload.
//
// It also reports deterministic counts that differ between runs of one
// side with the same workload and seed. It exits 1 on any "worse" verdict
// or count mismatch.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl (run from the repository root)")
		return 2
	}
	def, err := readBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = readRecords(args[i]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	defs := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		defs[m.Name] = m
	}
	mismatches, moved := determinismReport(sides)
	for _, line := range append(mismatches, moved...) {
		fmt.Println(line)
	}
	bad := len(mismatches) > 0
	fmt.Printf("%-18s %-24s %-30s %-30s %6s  %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "won", "verdict")
	for _, wl := range workloadsIn(sides) {
		fmt.Printf("%-18s %-24s %-30s %-30s\n", wl, "steal (share of CPU)",
			quartiles(steals(sides[0], wl)), quartiles(steals(sides[1], wl)))
		for _, name := range metricsIn(sides, wl) {
			d, ok := defs[name]
			if !ok {
				continue
			}
			base, change := values(sides[0], wl, name), values(sides[1], wl, name)
			if len(base) == 0 || len(change) == 0 {
				continue
			}
			c := judge(d, base, change)
			rawBase, rawChange := rawValues(sides[0], wl, name), rawValues(sides[1], wl, name)
			if len(rawBase) == len(base) && len(rawChange) == len(change) {
				c = judgeRaw(d, c, rawBase, rawChange)
			}
			if c.verdict == "worse" {
				bad = true
			}
			fmt.Printf("%-18s %-24s %-30s %-30s %5.0f%%  %s\n", wl, name,
				quartiles(base), quartiles(change), 100*c.won, c.verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

type comparison struct {
	won     float64
	verdict string
}

// judge applies the claim rules to one metric's parent and change values,
// both in run order.
func judge(d metricDef, base, change []float64) comparison {
	sign := 1.0 // positive when a larger value is better
	if d.Better == "lower" {
		sign = -1
	}
	pairs, wins := 0, 0
	for i := 0; i < len(base) && i < len(change); i++ {
		pairs++
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	c := comparison{won: float64(wins) / float64(pairs)}
	bq1, bmed, bq3 := quantiles3(base)
	cq1, cmed, cq3 := quantiles3(change)
	gain := sign * (cmed - bmed)
	// Every change run is better than every parent run when the change's
	// worst value beats the parent's best.
	allBetter := sign*(extreme(change, sign < 0)-extreme(base, sign > 0)) > 0
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return math.Abs(q3-q1) / math.Abs(med)
	}
	switch {
	case c.won >= 0.9 && gain > bq3-bq1:
		c.verdict = "improved"
	case d.Bound > 0 && -gain > d.Bound*math.Abs(bmed):
		c.verdict = "worse"
	case d.Bound == 0 && c.won <= 0.1 && -gain > bq3-bq1:
		c.verdict = "worse"
	case d.Bound > 0 && !allBetter && (spread(bq1, bmed, bq3) > d.Bound || spread(cq1, cmed, cq3) > d.Bound):
		c.verdict = "unresolved (spread wider than the bound)"
	case d.Bound == 0:
		c.verdict = "no change"
	default:
		c.verdict = "no worse within bound"
	}
	return c
}

// judgeRaw checks a verdict on steal-corrected values against the verdict
// on the same runs' uncorrected values; when they differ, the verdict is
// unresolved.
func judgeRaw(d metricDef, corrected comparison, base, change []float64) comparison {
	if raw := judge(d, base, change); raw.verdict != corrected.verdict {
		corrected.verdict = fmt.Sprintf("unresolved (%s corrected for steal, %s uncorrected)", corrected.verdict, raw.verdict)
	}
	return corrected
}

// extreme returns the largest value when max is true, else the smallest.
func extreme(v []float64, max bool) float64 {
	e := v[0]
	for _, x := range v[1:] {
		if (x > e) == max && x != e {
			e = x
		}
	}
	return e
}

// quantiles3 returns the quartiles and median, as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quantiles3(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		m := float64(n + 1)
		j := int(math.Floor(float64(k) * m / 4))
		delta := float64(k)*m/4 - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

func quartiles(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	q1, med, q3 := quantiles3(v)
	return fmt.Sprintf("%.4g [%.4g %.4g]", med, q1, q3)
}

func workloadsIn(sides [2][]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, side := range sides {
		for _, r := range side {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	return out
}

func metricsIn(sides [2][]record, wl string) []string {
	seen := map[string]bool{}
	var out []string
	for _, side := range sides {
		for _, r := range side {
			if r.Workload != wl {
				continue
			}
			for name := range r.Result.Metrics {
				if !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(recs []record, wl, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == wl {
			out = append(out, m.Value)
		}
	}
	return out
}

// rawValues are a metric's values before the steal correction, for the
// records that keep them.
func rawValues(recs []record, wl, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Raw[name]; ok && r.Workload == wl {
			out = append(out, v)
		}
	}
	return out
}

func steals(recs []record, wl string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == wl {
			out = append(out, r.Steal)
		}
	}
	return out
}

// determinismReport lists the deterministic counts that differ between
// runs of one side with the same workload and corpus (mismatches), and, as
// information, the counts the change moved relative to the parent. A
// record's counts cover a whole cycle of rounds, so the workload seed, which
// only orders the rounds, does not change them.
func determinismReport(sides [2][]record) (mismatches, moved []string) {
	type key struct {
		wl     string
		corpus int64
	}
	var first [2]map[key]record
	for i, side := range sides {
		first[i] = map[key]record{}
		for _, r := range side {
			k := key{r.Workload, r.CorpusSeed}
			ref, ok := first[i][k]
			if !ok {
				first[i][k] = r
				continue
			}
			if bad := countMismatches(ref.Counts, r.Counts); len(bad) > 0 {
				mismatches = append(mismatches, fmt.Sprintf("determinism: side %d, %s corpus %d, seeds %d and %d: %s",
					i+1, r.Workload, r.CorpusSeed, ref.Seed, r.Seed, strings.Join(bad, ", ")))
			}
		}
	}
	for k, base := range first[0] {
		if change, ok := first[1][k]; ok {
			if diff := countMismatches(base.Counts, change.Counts); len(diff) > 0 {
				moved = append(moved, fmt.Sprintf("counts moved by the change, %s corpus %d: %s",
					k.wl, k.corpus, strings.Join(diff, ", ")))
			}
		}
	}
	sort.Strings(moved)
	return mismatches, moved
}
