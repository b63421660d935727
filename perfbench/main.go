// Command perfbench is the lifter's benchmark. It drives the public entry
// points — lift.Run, hglint.Lint, triple.Check, lift.OpenStore and
// Store.Flush, ptr.Analyze and x86.Decode — over four closed-loop workloads
// in one process, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced rounds and prints the per-layer ledger,
// including the tracing overhead; it also writes the benchmark's own spans
// to .bench_build/spans-<workload>.jsonl. BENCHMARK.json at the repository
// root names every metric with its unit and bound, and says why each
// workload exists. --workload all runs every workload in turn, each in a
// process of its own. End-to-end times leave out the share of CPU time a
// hypervisor stole from the machine while they were measured (see
// stealClock); --out records keep the share and the uncorrected times.
//
// Two more modes:
//
//	perfbench --selftest               every workload briefly at a tiny scale, in
//	                                   both modes, checked against BENCHMARK.json
//	perfbench compare BASE NEW         compares two result sets written with --out
//
// The default seeds are 1; a claim must also hold on the held-out workload
// seed 7 and the held-out corpus seed 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

const (
	defaultSeed       = 1
	defaultCorpusSeed = 1
	// benchFile is the benchmark definition, at the repository root.
	benchFile = "BENCHMARK.json"
	// buildDir holds everything the benchmark writes: the build, store
	// containers and span files. It is the checkout's ignored build
	// directory, so a run never writes outside its checkout.
	buildDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed (held-out seed for claims: 7)")
	corpusSeed := fs.Int64("corpus-seed", defaultCorpusSeed, "Table 1 generator seed (held-out corpus for claims: 2)")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "append each run as a JSON record to this file (the input of compare)")
	selftest := fs.Bool("selftest", false, "run every workload briefly at a tiny scale and check the printed metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest {
		return selfTest()
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:       *seed,
		corpusSeed: *corpusSeed,
		seconds:    *seconds,
		traced:     *trace == 1,
		scale:      1,
		jobs:       runtime.NumCPU(),
	}
	res, err := measure(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		rec := record{Workload: w.name, Seed: *seed, CorpusSeed: *corpusSeed, Trace: *trace,
			Result: res.result, Counts: res.counts, Steal: res.steal, Raw: res.raw}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.result.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, with the other flags
// as given, so that nothing process-wide (peak resident memory, the
// expression intern table, the Go heap) carries over from one workload to
// the next. Each prints its result line; the workload's name goes to
// standard error before it.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s\n", w.name)
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored for compare: the printed result, the
// deterministic counts of one round of each edit set, the share of CPU time
// the hypervisor stole while the run measured, and the end-to-end times
// before the steal correction.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	CorpusSeed int64              `json:"corpus_seed"`
	Trace      int                `json:"trace"`
	Result     result             `json:"result"`
	Counts     map[string]uint64  `json:"counts"`
	Steal      float64            `json:"steal"`
	Raw        map[string]float64 `json:"raw,omitempty"`
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}
