package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
)

// selfTestScale shrinks every corpus so the self-test takes seconds.
const selfTestScale = 0.1

// selfTest runs every workload once untraced and once traced, at a tiny
// scale and a short measuring time, and checks against the benchmark
// definition that each names a workload the benchmark has, that every
// end-to-end and per-layer metric is printed with its unit, and that no
// task failed. It keeps the benchmark from silently losing a metric when
// the lifter changes.
func selfTest() int {
	def, err := readBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
		return 1
	}
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	for _, dw := range def.Workloads {
		w := findWorkload(dw.Name)
		if w == nil {
			fail("%s: BENCHMARK.json names a workload the benchmark does not have", dw.Name)
			continue
		}
		for trace, want := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			cfg := runConfig{seed: defaultSeed, corpusSeed: defaultCorpusSeed, seconds: 0.2, traced: trace == 1, scale: selfTestScale, jobs: runtime.NumCPU()}
			out, err := measure(context.Background(), w, cfg)
			if err != nil {
				fail("%s trace %d: %v", w.name, trace, err)
				continue
			}
			res := out.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				fail("%s trace %d: correct=%t, %d of %d tasks failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					fail("%s trace %d: metric %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					fail("%s trace %d: metric %s printed in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				fail("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			if m, ok := res.Metrics["failed_frac"]; ok && m.Value != 0 {
				fail("%s trace %d: failed_frac = %g", w.name, trace, m.Value)
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench selftest: FAIL:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Printf("perfbench selftest: ok (%d workloads, %d end-to-end and %d per-layer metrics)\n",
		len(def.Workloads), len(def.EndToEnd), len(def.PerLayer))
	return 0
}
