package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/lift"
)

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) in Python, the method the
	// benchmark's spreads are judged by.
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, med, q3 := quantiles3(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quantiles3(%v) = %g %g %g, want %g %g %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {75, 40}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"faster everywhere", lower, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"slower past the bound", lower, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{"same", lower, []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "no worse within bound"},
		{"too noisy", lower, []float64{60, 140, 70, 130, 100, 65, 135, 100, 90, 110}, "unresolved (spread wider than the bound)"},
		{"per-layer count up", metricDef{Better: "higher"}, []float64{150, 150, 150, 150, 150, 150, 150, 150, 150, 150}, "improved"},
		{"per-layer count down", metricDef{Better: "higher"}, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}, "worse"},
	}
	for _, c := range cases {
		if got := judge(c.d, base, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeRaw(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	c := judge(lower, base, faster)
	if got := judgeRaw(lower, c, base, faster).verdict; got != "improved" {
		t.Errorf("raw values agree: verdict %q, want improved", got)
	}
	// The change ran under less steal: its uncorrected times are no better.
	if got := judgeRaw(lower, c, base, base).verdict; got != "unresolved (improved corrected for steal, no worse within bound uncorrected)" {
		t.Errorf("raw values disagree: verdict %q", got)
	}
}

func TestOracle(t *testing.T) {
	cases := []struct {
		expect, got core.Status
		fails       bool
	}{
		{core.StatusLifted, core.StatusLifted, false},
		{core.StatusLifted, core.StatusTimeout, true},
		{core.StatusLifted, core.StatusUnprovableRet, true},
		{core.StatusUnprovableRet, core.StatusUnprovableRet, false},
		{core.StatusUnprovableRet, core.StatusLifted, true},
		{core.StatusConcurrency, core.StatusLifted, true},
		{core.StatusTimeout, core.StatusTimeout, false},
		{core.StatusTimeout, core.StatusLifted, false}, // lifting within budget is no failure
		{core.StatusTimeout, core.StatusPanic, true},
		{core.StatusConcurrency, core.StatusCancelled, true},
		{core.StatusUnprovableRet, core.StatusError, true},
	}
	for _, c := range cases {
		why := oracle(c.expect, lift.Result{Name: "u", Status: c.got})
		if (why != "") != c.fails {
			t.Errorf("expect %s, got %s: failure %q, want failing=%t", c.expect, c.got, why, c.fails)
		}
	}
}

func TestTable1ShapesKeepThePapersMix(t *testing.T) {
	full := corpus.XenSuite(1)
	if got := table1Shapes(2214); !reflect.DeepEqual(got, full) {
		t.Errorf("table1Shapes(2214) = %+v, want Table 1 itself %+v", got, full)
	}
	cells := func(s corpus.DirShape) []int { return []int{s.Lifted, s.Unprovable, s.Concurrent, s.Timeout} }
	for _, n := range []int{2, table1Units, 100} {
		units, binaries, rejected := 0, 0, 0
		for i, s := range table1Shapes(n) {
			for j, c := range cells(s) {
				// Every (directory, outcome) cell is its share of n, rounded
				// up or down.
				if want := float64(cells(full[i])[j]) * float64(n) / 2214; math.Abs(float64(c)-want) >= 1 {
					t.Errorf("table1Shapes(%d): %s outcome %d has %d units, want %.2f", n, s.Name, j, c, want)
				}
				units += c
				if s.Kind == corpus.KindBinary {
					binaries += c
				}
				if j > 0 {
					rejected += c
				}
			}
		}
		if units != n {
			t.Errorf("table1Shapes(%d) has %d units", n, units)
		}
		if n == table1Units && (binaries != 0 || rejected != 1) {
			t.Errorf("table1Shapes(%d): %d binaries and %d rejected units, the workload describes 0 and 1", n, binaries, rejected)
		}
	}
}
