// Command xenbench regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic corpus:
//
//	-table1    Table 1  — Xen-shaped case study statistics per directory
//	-table2    Table 2  — CoreUtils-shaped binaries exported & proven (Step 2)
//	-fig3      Figure 3 — per-function verification time vs instruction count
//	-weird     Section 2 — the weird-edge binary's Hoare graph
//	-failures  Section 5.3 — the three failure case studies
//	-ptrbench  pointer pre-pass benchmark over the ptr_ pathological directory
//	-all       everything above except -ptrbench (which is a benchmark, not
//	           a paper artifact; run it explicitly, with and without -ptr)
//
// -scale shrinks the Table 1 unit counts (1.0 = the paper's 63 binaries
// and 2151 library functions; the default keeps runtimes laptop-friendly).
//
// -jobs N fans the lifts of each sweep out across N lift.Run workers
// (default: all CPUs). Lifts are context-free and mutually independent, so
// every count is identical at any job count; only wall time changes. All
// workers share one solver memo cache, and the tables report its per-row
// hit-rate ("Hit%") next to the per-directory wall time.
//
// Step 2 (-table2, -weird) runs in this process through lift.Check, each
// lifted graph's theorems fanned out over goroutines (-jobs of them for
// -table2).
// ARCHITECTURE.md ("Step 2 runs in-process") records the measurement
// behind that choice.
//
// -ptr enables the pointer-analysis pre-pass on every lift: per-function
// fact tables of proven region relations and separation hypotheses answer
// pointer comparisons before the decision procedure, so undecided pairs
// stop forking the memory model. Every hypothesis a lift rests on is in
// its graph's assumption list, and Step 2 (lift.Check) checks each graph
// under that list, so it needs no facts of its own.
//
// Robustness flags make long sweeps survivable:
//
//	-timeout d         per-lift wall-clock budget (0 = none); a lift past it
//	                   reports "deadline"
//	-retries N         attempts per lift (retries panicked lifts and
//	                   expired deadlines)
//	-retry-backoff d   delay before the first retry (doubles per retry)
//	-store f           cache lifted Hoare graphs in the content-addressed
//	                   store at f; a warm re-run decodes instead of lifting
//	                   (stderr reports the hit/miss split)
//	-keep-going        exit 0 even when lifts panicked, passed their
//	                   deadline, errored, were cancelled or were quarantined
//
// A spent step budget (Table 1's z column: units that exhaust their
// MaxStates by design) is an analysis outcome like unprovable and
// concurrency: it is never retried, it is stored like any outcome, and it
// leaves the exit status alone. An expired wall-clock deadline is a fault
// of the machine and the moment: Table 1 still counts it in z, but it is
// retried, never stored, and fails the run.
//
// The run stops cleanly on SIGINT/SIGTERM: in-flight lifts report
// cancelled, the trace and metrics still flush, and the exit status is
// non-zero (unless -keep-going). Re-running an interrupted run with the
// same -store resumes it: every lift sweep (-table1, -table2, -fig3,
// -ptrbench) answers the tasks the store holds without lifting, and lifts
// only what it does not keep — unfinished tasks, panics, quarantines and
// expired deadlines. Table 2 checks Step 2 on the stored graphs. A store
// write that fails is counted in the stderr tally and makes the exit
// status non-zero, with or without -keep-going.
//
// The -fault-* flags drive the deterministic fault injector (CI's
// fault-injection smoke job; never needed in normal runs):
//
//	-fault-seed N     decision seed
//	-fault-panic p    probability a lift attempt panics
//	-fault-stall p    probability a lift attempt stalls until the watchdog
//
// -trace out.jsonl writes every lift/solver/memory-model event of the run
// as JSONL; -metrics prints the aggregated metrics registry after the last
// table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/hoare"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/x86"
	"repro/lift"
)

// runner carries the per-run tuning shared by every sweep plus the health
// counters that decide the exit status.
type runner struct {
	jobs    int
	timeout time.Duration
	retry   lift.RetryPolicy
	store   *lift.Store
	flip    string
	ptr     bool
	faults  *faultinject.Injector
	sinks   []obs.Sink

	panics, deadlines, errors, cancelled, quarantined int
	storeHits, storeMisses, storeWriteErrors          int
	storeWriteErr                                     error // the first failed store write
}

// opts assembles the facade options every lift sweep shares.
func (rn *runner) opts() []lift.Option {
	opts := []lift.Option{
		lift.Jobs(rn.jobs), lift.Timeout(rn.timeout),
		lift.Observe(rn.sinks...), lift.Retry(rn.retry), lift.Faults(rn.faults),
	}
	if rn.store != nil {
		opts = append(opts, lift.WithStore(rn.store))
	}
	if rn.ptr {
		opts = append(opts, lift.PointerFacts())
	}
	return opts
}

// absorb folds one Summary's infrastructure outcomes into the health
// counters. Unprovable, concurrency and spent-step-budget results are
// analysis outcomes, not failures — Table 1 reports them as its x, y and
// z columns.
func (rn *runner) absorb(sum *lift.Summary) {
	rn.panics += sum.Panics
	rn.deadlines += sum.Deadlines
	rn.errors += sum.Errors
	rn.cancelled += sum.Cancelled
	rn.quarantined += sum.Quarantined
	rn.storeHits += sum.StoreHits
	rn.storeMisses += sum.StoreMisses
	rn.storeWriteErrors += sum.StoreWriteErrors
	for _, r := range sum.Results {
		if rn.storeWriteErr == nil {
			rn.storeWriteErr = r.StoreWriteErr
		}
	}
}

// healthy reports whether every lift completed without infrastructure
// trouble.
func (rn *runner) healthy() bool {
	return rn.panics == 0 && rn.deadlines == 0 && rn.errors == 0 &&
		rn.cancelled == 0 && rn.quarantined == 0
}

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	fig3 := flag.Bool("fig3", false, "regenerate Figure 3")
	weird := flag.Bool("weird", false, "regenerate the Section 2 example")
	failures := flag.Bool("failures", false, "regenerate the Section 5.3 failures")
	ptrBench := flag.Bool("ptrbench", false, "run the pointer pre-pass benchmark (pathological ptr_ directory)")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Float64("scale", 0.15, "Table 1 corpus scale (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel lift workers (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-lift wall-clock budget (0 = none)")
	retries := flag.Int("retries", 1, "attempts per lift (>1 retries panicked lifts and expired deadlines)")
	retryBackoff := flag.Duration("retry-backoff", 0, "delay before the first retry (doubles per retry)")
	storePath := flag.String("store", "", "cache lifted Hoare graphs in the store at this file")
	ptrFacts := flag.Bool("ptr", false, "run the pointer-analysis pre-pass before each lift")
	flipUnit := flag.String("flip", "", "flip one immediate byte in the named corpus unit's function before lifting (store-invalidation smoke)")
	keepGoing := flag.Bool("keep-going", false, "exit 0 even when lifts panicked, passed their deadline, errored or were quarantined")
	faultSeed := flag.Int64("fault-seed", 0, "fault injector decision seed (CI smoke)")
	faultPanic := flag.Float64("fault-panic", 0, "probability a lift attempt panics (CI smoke)")
	faultStall := flag.Float64("fault-stall", 0, "probability a lift attempt stalls until the watchdog (CI smoke)")
	traceOut := flag.String("trace", "", "write a JSONL event trace to this file")
	showMetrics := flag.Bool("metrics", false, "print the aggregated metrics registry on exit")
	flag.Parse()

	if *all {
		*table1, *table2, *fig3, *weird, *failures = true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig3 && !*weird && !*failures && !*ptrBench {
		fmt.Fprintln(os.Stderr,
			"xenbench: nothing selected: pass at least one of -table1, -table2, -fig3, -weird, -failures, -ptrbench, or -all\n"+
				"(-scale, -seed and -jobs only tune a selected run)")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sinks []obs.Sink
	var jsonl *obs.JSONL
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		jsonl = obs.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	var metrics *obs.Metrics
	if *showMetrics {
		metrics = obs.NewMetrics()
		sinks = append(sinks, metrics)
	}
	rn := &runner{
		jobs:    *jobs,
		timeout: *timeout,
		retry:   lift.RetryPolicy{MaxAttempts: *retries, Backoff: *retryBackoff},
		// With no sink selected lift.Observe leaves tracing off: every
		// emission site reduces to one pointer check.
		sinks: sinks,
	}
	if *faultPanic > 0 || *faultStall > 0 {
		rn.faults = faultinject.New(faultinject.Config{
			Seed: *faultSeed, PanicRate: *faultPanic, StallRate: *faultStall,
		})
	}
	if *storePath != "" {
		st, err := lift.OpenStore(*storePath)
		if err != nil {
			fatal(err)
		}
		if n := st.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "xenbench: store: dropped %d corrupt or stale-version records\n", n)
		}
		rn.store = st
	}
	rn.flip = *flipUnit
	rn.ptr = *ptrFacts

	if *table1 {
		runTable1(ctx, *scale, *seed, rn)
	}
	if *table2 {
		runTable2(ctx, rn)
	}
	if *fig3 {
		runFig3(ctx, *scale, *seed, rn)
	}
	if *weird {
		runWeird(ctx, rn.sinks)
	}
	if *failures {
		runFailures(ctx, rn.sinks)
	}
	if *ptrBench {
		runPtrBench(ctx, rn)
	}

	// One exit point: the trace and metrics flush on every path —
	// including a SIGINT-cancelled run — before the status is decided.
	code := 0
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "xenbench: trace:", err)
			code = 1
		}
		traceFile.Close()
	}
	if metrics != nil {
		fmt.Print(metrics.Dump())
	}
	if rn.store != nil {
		tally := fmt.Sprintf("xenbench: store: hits=%d misses=%d", rn.storeHits, rn.storeMisses)
		if rn.storeWriteErrors > 0 {
			// The lifts completed, but their graphs were not cached: a
			// re-run would lift them again, so the run fails even with
			// -keep-going.
			tally += fmt.Sprintf(" write-errors=%d (first: %v)", rn.storeWriteErrors, rn.storeWriteErr)
			code = 1
		}
		fmt.Fprintln(os.Stderr, tally)
	}
	if !rn.healthy() {
		fmt.Fprintf(os.Stderr,
			"xenbench: unhealthy run: %d panics, %d deadlines, %d errors, %d cancelled, %d quarantined\n",
			rn.panics, rn.deadlines, rn.errors, rn.cancelled, rn.quarantined)
		if !*keepGoing {
			code = 1
		}
	}
	os.Exit(code)
}

// dirResult accumulates one Table 1 row.
type dirResult struct {
	name                          string
	kind                          corpus.UnitKind
	lifted, unprov, conc, timeout int
	stats                         hoare.Stats
	queries, hits                 uint64
	elapsed                       time.Duration
	times                         []funcTime // for Figure 3
}

type funcTime struct {
	instrs int
	d      time.Duration
}

// hitRate renders the row's solver memo hit-rate.
func (r *dirResult) hitRate() string {
	if r.queries == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(r.hits)/float64(r.queries))
}

// liftDirectory generates one Table 1 directory and lifts every unit
// through lift.Run.
func liftDirectory(ctx context.Context, shape corpus.DirShape, seed int64, cache *solver.Cache, rn *runner) (*dirResult, error) {
	dir, err := corpus.BuildDirectory(shape, seed)
	if err != nil {
		return nil, err
	}
	if rn.flip != "" {
		for _, u := range dir.Units {
			if u.Name != rn.flip {
				continue
			}
			fn, err := corpus.FlipUnit(u)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "xenbench: flipped one immediate in %s/%s\n", u.Name, fn)
		}
	}
	opts := append(rn.opts(), lift.Cache(cache))
	sum := lift.Run(ctx, lift.UnitRequests(dir.Units), opts...)
	rn.absorb(sum)
	res := &dirResult{name: shape.Name, kind: shape.Kind, elapsed: sum.Wall}
	for _, r := range sum.Results {
		res.queries += r.Stats.Sem.SolverQueries
		res.hits += r.Stats.Sem.SolverHits
		switch r.Status {
		case core.StatusLifted:
			res.lifted++
			res.stats.Add(r.Stats.Graph)
			res.times = append(res.times, funcTime{instrs: r.Stats.Graph.Instructions, d: r.Stats.Wall})
		case core.StatusUnprovableRet, core.StatusError, core.StatusPanic:
			res.unprov++
		case core.StatusConcurrency:
			res.conc++
		case core.StatusTimeout, core.StatusDeadline:
			res.timeout++
		}
	}
	return res, nil
}

func runTable1(ctx context.Context, scale float64, seed int64, rn *runner) {
	fmt.Printf("Table 1: Xen-shaped case study (scale %.2f, %d jobs)\n", scale, rn.jobs)
	fmt.Printf("%-16s %-22s %9s %9s %6s %5s %5s %6s %10s\n",
		"Directory", "w+x+y+z", "Instrs", "States", "A", "B", "C", "Hit%", "Time")
	cache := solver.NewCache()
	var totals [2]dirResult
	for _, shape := range corpus.XenSuite(scale) {
		res, err := liftDirectory(ctx, shape, seed, cache, rn)
		if err != nil {
			fatal(err)
		}
		printRow(res)
		t := &totals[0]
		if res.kind == corpus.KindLibFunc {
			t = &totals[1]
		}
		t.lifted += res.lifted
		t.unprov += res.unprov
		t.conc += res.conc
		t.timeout += res.timeout
		t.stats.Add(res.stats)
		t.queries += res.queries
		t.hits += res.hits
		t.elapsed += res.elapsed
	}
	totals[0].name = "Total (binaries)"
	totals[1].name = "Total (lib funcs)"
	printRow(&totals[0])
	printRow(&totals[1])
	fmt.Println("w lifted, x unprovable return address, y concurrency, z timeout")
	fmt.Println("A resolved indirections, B unresolved jumps, C unresolved calls")
	cs := cache.Stats()
	fmt.Printf("solver memo: %d queries, %d exact, %d hits (%.0f%%), %d entries\n",
		cs.Queries, cs.Exact, cs.Hits, 100*cs.HitRate(), cs.Entries)
	fmt.Println()
}

func printRow(r *dirResult) {
	total := r.lifted + r.unprov + r.conc + r.timeout
	wxyz := fmt.Sprintf("%d = %d+%d+%d+%d", total, r.lifted, r.unprov, r.conc, r.timeout)
	fmt.Printf("%-16s %-22s %9d %9d %6d %5d %5d %6s %10s\n",
		r.name, wxyz, r.stats.Instructions, r.stats.States,
		r.stats.ResolvedInd, r.stats.UnresolvedJump, r.stats.UnresolvedCall,
		r.hitRate(), r.elapsed.Round(time.Millisecond))
}

func runTable2(ctx context.Context, rn *runner) {
	fmt.Printf("Table 2: CoreUtils-shaped binaries exported and proven (Step 2, %d jobs)\n", rn.jobs)
	fmt.Printf("%-10s %13s %14s %10s %10s %8s %8s\n",
		"Binary", "#Instructions", "#Indirections", "Proven", "Assumed", "Failed", "Skipped")
	units, err := corpus.CoreUtilsSuite(1.0)
	if err != nil {
		fatal(err)
	}
	reqs := make([]lift.Request, 0, len(units))
	for _, u := range units {
		reqs = append(reqs, lift.Binary(u.Name, u.Image))
	}
	// With -store the graphs of a warm run are decoded from the store, so
	// Step 2 below checks the stored graphs: an interrupted Table 2
	// resumes like any other sweep.
	opts := rn.opts()
	sum := lift.Run(ctx, reqs, opts...)
	rn.absorb(sum)

	var sumI, sumInd, sumP, sumA, sumF, sumS int
	for i, r := range sum.Results {
		if r.Status != core.StatusLifted || r.Binary == nil {
			fmt.Printf("%-10s NOT LIFTED: %s\n", r.Name, r.Status)
			continue
		}
		var proven, assumed, failed, skipped int
		for _, fr := range r.Binary.Funcs {
			rep := lift.Check(ctx, units[i].Image, fr.Graph, opts...)
			proven += rep.Proven
			assumed += rep.Assumed
			failed += rep.Failed
			skipped += rep.Skipped
		}
		fmt.Printf("%-10s %13d %14d %10d %10d %8d %8d\n",
			r.Name, r.Stats.Graph.Instructions, r.Stats.Graph.ResolvedInd,
			proven, assumed, failed, skipped)
		sumI += r.Stats.Graph.Instructions
		sumInd += r.Stats.Graph.ResolvedInd
		sumP += proven
		sumA += assumed
		sumF += failed
		sumS += skipped
	}
	fmt.Printf("%-10s %13d %14d %10d %10d %8d %8d\n", "Total", sumI, sumInd, sumP, sumA, sumF, sumS)
	cs := sum.Cache.Stats()
	fmt.Printf("lift wall time %s; solver memo %.0f%% of %d queries, %d exact\n",
		sum.Wall.Round(time.Millisecond), 100*cs.HitRate(), cs.Queries, cs.Exact)
	fmt.Println()
}

func runFig3(ctx context.Context, scale float64, seed int64, rn *runner) {
	fmt.Println("Figure 3: verification time vs instruction count")
	// A dedicated sweep across function sizes: 10 functions per size
	// class, scaled by -scale.
	res := &dirResult{}
	cache := solver.NewCache()
	perClass := int(10*scale + 0.5)
	if perClass < 2 {
		perClass = 2
	}
	for _, stmts := range []int{2, 4, 8, 12, 16, 24, 32, 48} {
		shape := corpus.DirShape{
			Name: "fig3", Kind: corpus.KindLibFunc, Lifted: perClass,
			MinStmts: stmts, MaxStmts: stmts, Helpers: 1,
		}
		r, err := liftDirectory(ctx, shape, seed+int64(stmts), cache, rn)
		if err != nil {
			fatal(err)
		}
		res.times = append(res.times, r.times...)
	}
	sort.Slice(res.times, func(i, j int) bool { return res.times[i].instrs < res.times[j].instrs })
	fmt.Println("instructions,microseconds")
	for _, ft := range res.times {
		fmt.Printf("%d,%d\n", ft.instrs, ft.d.Microseconds())
	}
	// The paper's observation: very little correlation between size and
	// time. Report the rank statistics.
	if n := len(res.times); n > 4 {
		half := n / 2
		var smallT, largeT time.Duration
		for i, ft := range res.times {
			if i < half {
				smallT += ft.d
			} else {
				largeT += ft.d
			}
		}
		fmt.Printf("# mean time, smaller half: %s; larger half: %s\n",
			(smallT / time.Duration(half)).Round(time.Microsecond),
			(largeT / time.Duration(n-half)).Round(time.Microsecond))
	}
	fmt.Println()
}

func runWeird(ctx context.Context, sinks []obs.Sink) {
	fmt.Println("Section 2: the weird-edge binary")
	s, err := corpus.WeirdEdge()
	if err != nil {
		fatal(err)
	}
	res := lift.One(ctx, lift.Func(s.Name, s.Image, s.FuncAddr), lift.Observe(sinks...))
	r := res.Func
	if r == nil || r.Graph == nil {
		fatal(fmt.Errorf("%s: %s", s.Name, res.Status))
	}
	st := r.Stats()
	fmt.Printf("status=%s instrs=%d states=%d resolved=%d weird-vertices=%d\n",
		r.Status, st.Instructions, st.States, st.ResolvedInd, st.WeirdVertices)
	for _, e := range r.Graph.SortedEdges() {
		label := e.Inst.String()
		marker := ""
		if e.Inst.Mn == x86.JMP && len(e.Inst.Ops) == 1 && e.Inst.Ops[0].Kind == x86.OpMem {
			if vs := r.Graph.Vertices[e.To]; vs != nil && vs.Addr == s.FuncAddr+1 {
				marker = "   <-- WEIRD EDGE (hidden ret gadget)"
			}
		}
		fmt.Printf("  %s -> %s : %s%s\n", e.From, e.To, label, marker)
	}
	rep := lift.Check(ctx, s.Image, r.Graph, lift.Jobs(2), lift.Observe(sinks...))
	fmt.Printf("Step 2: %d proven, %d assumed, %d failed\n", rep.Proven, rep.Assumed, rep.Failed)
	fmt.Println()
}

func runFailures(ctx context.Context, sinks []obs.Sink) {
	fmt.Println("Section 5.3: failure case studies")
	scenarios := []func() (*corpus.Scenario, error){
		corpus.Ret2Win, corpus.StackProbe, corpus.NonStdRSP, corpus.Overflow,
	}
	reqs := make([]lift.Request, len(scenarios))
	descs := make([]string, len(scenarios))
	for i, f := range scenarios {
		s, err := f()
		if err != nil {
			fatal(err)
		}
		reqs[i] = lift.Func(s.Name, s.Image, s.FuncAddr)
		descs[i] = s.Describe
	}
	for i, res := range lift.Run(ctx, reqs, lift.Observe(sinks...)).Results {
		fmt.Printf("%-12s status=%s\n", res.Name, res.Status)
		fmt.Printf("             %s\n", descs[i])
		if r := res.Func; r != nil {
			for _, reason := range r.Reasons {
				fmt.Printf("             reason: %s\n", reason)
			}
			if r.Graph != nil {
				for _, o := range r.Graph.Obligations {
					fmt.Printf("             obligation: %s\n", o)
				}
			}
		}
	}
	fmt.Println()
}

// runPtrBench lifts the pathological ptr_ directory, whose units scale up
// the Section 2 aliasing idiom until fork/destroy dominates. Run it twice —
// without and with -ptr — and compare: the counters line quantifies the
// pre-pass's fork+destroy reduction, and the verdict lines (deliberately
// free of timings) let CI diff the two runs byte-for-byte on the functions
// both modes lift. Without -ptr the forkbomb unit exhausts its step budget
// by design, an outcome that leaves the exit status alone.
func runPtrBench(ctx context.Context, rn *runner) {
	mode := "off"
	if rn.ptr {
		mode = "on"
	}
	fmt.Printf("Pointer pre-pass benchmark (ptr facts %s, %d jobs)\n", mode, rn.jobs)
	dir, err := corpus.PtrPathology()
	if err != nil {
		fatal(err)
	}
	sum := lift.Run(ctx, lift.UnitRequests(dir.Units), rn.opts()...)
	rn.absorb(sum)
	for _, r := range sum.Results {
		fmt.Printf("verdict %s %s\n", r.Name, r.Status)
	}
	fmt.Printf("counters forks=%d destroys=%d fallbacks=%d facthits=%d\n",
		sum.Stats.Sem.Forks, sum.Stats.Sem.Destroys,
		sum.Stats.Sem.Fallbacks, sum.Stats.Sem.FactHits)
	fmt.Printf("wall %s\n", sum.Wall.Round(time.Millisecond))
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xenbench:", err)
	os.Exit(1)
}
