// Command hglift lifts an x86-64 ELF binary to a Hoare Graph (Step 1 of
// the paper) and reports the extraction statistics, annotations, proof
// obligations and assumptions.
//
// Usage:
//
//	hglift [-func addr|name [-o graph.hgcs] [-dot graph.dot]] [-dump] [-thy] [-disasm] binary.elf ...
//
// Without -func the binary is lifted from its entry point, exploring every
// reachable instruction including internal calls. With -func, the single
// function is lifted the way the paper lifts exported shared-object
// functions.
//
// Several binaries may be given at once; they are lifted as a batch through
// lift.Run, fanned out across -jobs workers (0 = all CPUs),
// each under the -timeout wall-clock budget, and summarised one line per
// binary. The detail flags (-func, -dump, -thy, -disasm, -o, -dot) apply to
// the single-binary form only.
//
// The exit status is non-zero when any lift panicked, passed its -timeout
// deadline, errored, was cancelled or was quarantined (and, in batch mode,
// when any binary failed to lift); -keep-going reports the trouble but
// exits 0 anyway. A spent step budget is an analysis outcome like an
// unprovable return address, not trouble. Retry and store flags make long
// batches survivable:
//
//	-retries N         attempts per lift (retries panicked lifts and
//	                   expired deadlines)
//	-retry-backoff d   delay before the first retry (doubles per retry)
//	-store f           cache lifted Hoare graphs in the content-addressed
//	                   store at f; re-lifting an unchanged binary decodes
//	                   the cached graphs instead of exploring, so re-running
//	                   an interrupted batch with the same -store resumes it
//
// A store write that fails is reported with its count on stderr and makes
// the exit status non-zero, with or without -keep-going: the lifts
// completed, but a re-run would lift them again.
//
// -ptr enables the pointer-analysis pre-pass: a per-function fact table of
// proven region relations and separation hypotheses is computed before
// exploring, so undecided pointer pairs stop forking the memory model.
// Separation hypotheses appear in the graph's assumption list, which is
// what hgprove -hg checks a saved graph under.
//
// -o saves the single-function graph as an HGCS graph file, the one form
// hgprove -hg and hglint -hg read; -dump prints a graph as .hg text. -o
// and -dot without -func are usage errors. With -dump or -thy, standard
// output carries only the graph text and the theory, so either can be
// redirected to a file, and the report goes to standard error.
//
// Observability flags apply to every form:
//
//	-trace out.jsonl   write every lift/solver/memory-model event as JSONL
//	-metrics           print the aggregated metrics registry on exit
//	-pprof addr        serve net/http/pprof on addr (e.g. localhost:6060)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/triple"
	"repro/lift"
)

// observer wires the -trace/-metrics flags into obs sinks shared by every
// lifting path. flush must run before any normal or error exit so the
// trace file is complete and the metrics dump is printed.
type observer struct {
	opts    []lift.Option
	jsonl   *obs.JSONL
	file    *os.File
	metrics *obs.Metrics
	report  io.Writer // where the metrics dump goes
}

func newObserver(tracePath string, withMetrics bool, report io.Writer) *observer {
	o := &observer{report: report}
	var sinks []obs.Sink
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		o.file = f
		o.jsonl = obs.NewJSONL(f)
		sinks = append(sinks, o.jsonl)
	}
	if withMetrics {
		o.metrics = obs.NewMetrics()
		sinks = append(sinks, o.metrics)
	}
	if len(sinks) > 0 {
		o.opts = []lift.Option{lift.Observe(sinks...)}
	}
	return o
}

func (o *observer) flush() {
	if o.jsonl != nil {
		if err := o.jsonl.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "hglift: trace:", err)
		}
		o.file.Close()
	}
	if o.metrics != nil {
		fmt.Fprint(o.report, o.metrics.Dump())
	}
}

func main() {
	funcSpec := flag.String("func", "", "lift a single function: hex address or symbol name")
	dump := flag.Bool("dump", false, "print the Hoare graph as .hg text (vertices, invariants, edges)")
	thy := flag.Bool("thy", false, "print the Isabelle/HOL-style theory export")
	disasm := flag.Bool("disasm", false, "print the recovered disassembly")
	hgOut := flag.String("o", "", "save the lifted graph to this HGCS graph file (requires -func)")
	dotOut := flag.String("dot", "", "write a Graphviz rendering to this file (requires -func)")
	jobs := flag.Int("jobs", 0, "batch mode: parallel lift workers (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "per-lift wall-clock budget (0 = none)")
	retries := flag.Int("retries", 1, "attempts per lift (>1 retries panicked lifts and expired deadlines)")
	retryBackoff := flag.Duration("retry-backoff", 0, "delay before the first retry (doubles per retry)")
	storePath := flag.String("store", "", "cache lifted Hoare graphs in the store at this file")
	ptrFacts := flag.Bool("ptr", false, "run the pointer-analysis pre-pass before each lift")
	keepGoing := flag.Bool("keep-going", false, "exit 0 even when lifts panicked, passed their deadline, errored or were quarantined")
	traceOut := flag.String("trace", "", "write a JSONL event trace to this file")
	showMetrics := flag.Bool("metrics", false, "print the aggregated metrics registry on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if flag.NArg() < 1 || *funcSpec == "" && (*hgOut != "" || *dotOut != "") {
		fmt.Fprintln(os.Stderr, "usage: hglift [-func addr|name [-o graph.hgcs] [-dot graph.dot]] [-dump] [-thy] [-disasm] [-jobs N] [-timeout d] [-retries N] [-store f] [-ptr] [-keep-going] [-trace f] [-metrics] [-pprof addr] binary.elf ...")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hglift: pprof:", err)
			}
		}()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	report := io.Writer(os.Stdout)
	if *dump || *thy {
		report = os.Stderr
	}
	obsv := newObserver(*traceOut, *showMetrics, report)
	retry := lift.RetryPolicy{MaxAttempts: *retries, Backoff: *retryBackoff}
	var store *lift.Store
	if *storePath != "" {
		var err error
		if store, err = lift.OpenStore(*storePath); err != nil {
			fatal(err)
		}
		if n := store.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "hglift: store: dropped %d corrupt or stale-version records\n", n)
		}
	}

	if flag.NArg() > 1 {
		if *funcSpec != "" || *dump || *thy || *disasm {
			fmt.Fprintln(os.Stderr, "hglift: detail flags apply to a single binary only")
			os.Exit(2)
		}
		liftBatch(ctx, flag.Args(), batchConfig{
			jobs: *jobs, timeout: *timeout, retry: retry,
			keepGoing: *keepGoing, store: store, ptr: *ptrFacts,
		}, obsv)
		return
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	im, err := image.Load(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	opts := append([]lift.Option{lift.Jobs(1), lift.Timeout(*timeout), lift.Retry(retry)}, obsv.opts...)
	if store != nil {
		opts = append(opts, lift.WithStore(store))
	}
	if *ptrFacts {
		opts = append(opts, lift.PointerFacts())
	}

	if *funcSpec == "" {
		res := lift.One(ctx, lift.Binary(flag.Arg(0), im), opts...)
		br := res.Binary
		if br == nil {
			obsv.flush()
			fatal(fmt.Errorf("lift %s: %s %s", flag.Arg(0), res.Status, res.PanicMsg))
		}
		fmt.Fprintf(report, "binary: %s\n", br.Status)
		printStats(report, br.Stats)
		for _, fr := range br.Funcs {
			st := fr.Stats()
			fmt.Fprintf(report, "  %-24s %-28s instrs=%-5d states=%-5d A=%d B=%d C=%d\n",
				fr.Name, fr.Status, st.Instructions, st.States,
				st.ResolvedInd, st.UnresolvedJump, st.UnresolvedCall)
			printDetails(report, fr, *dump, *thy)
		}
		obsv.flush()
		exitUnhealthy(flag.Arg(0), res, *keepGoing)
		return
	}

	addr, name, err := im.ResolveFunc(*funcSpec)
	if err != nil {
		fatal(err)
	}
	res := lift.One(ctx, lift.Func(name, im, addr), opts...)
	fr := res.Func
	if fr == nil {
		obsv.flush()
		fatal(fmt.Errorf("lift %s: %s %s", name, res.Status, res.PanicMsg))
	}
	if fr.Graph != nil && *hgOut != "" {
		if err := os.WriteFile(*hgOut, hgstore.MarshalGraph(fr.Graph), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(report, "graph written to", *hgOut)
	}
	if fr.Graph != nil && *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(fr.Graph.ToDOT()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(report, "dot written to", *dotOut)
	}
	fmt.Fprintf(report, "%s @ %#x: %s\n", fr.Name, fr.Addr, fr.Status)
	for _, r := range fr.Reasons {
		fmt.Fprintf(report, "  reason: %s\n", r)
	}
	printStats(report, fr.Stats())
	printDetails(report, fr, *dump, *thy)
	if *disasm && fr.Graph != nil {
		for _, line := range fr.Graph.Disasm() {
			fmt.Fprintln(report, line)
		}
	}
	obsv.flush()
	exitUnhealthy(flag.Arg(0), res, *keepGoing)
}

// exitUnhealthy terminates with a non-zero status when a single lift of
// the binary at path ended in an infrastructure failure (panic, expired
// deadline, error, cancellation) — -keep-going reports it but keeps the zero
// status — or when its result could not be written to the store, which
// fails the run even with -keep-going: the lift completed, but a re-run
// would lift it again.
func exitUnhealthy(path string, res lift.Result, keepGoing bool) {
	code := 0
	if res.StoreWriteErr != nil {
		fmt.Fprintf(os.Stderr, "hglift: store: write-errors=1: %v\n", res.StoreWriteErr)
		code = 1
	}
	switch res.Status {
	case core.StatusPanic, core.StatusDeadline, core.StatusError, core.StatusCancelled:
		fmt.Fprintf(os.Stderr, "hglift: %s: lift ended in %s\n", path, res.Status)
		if !keepGoing {
			code = 1
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

// batchConfig carries the robustness tuning of one batch run.
type batchConfig struct {
	jobs      int
	timeout   time.Duration
	retry     lift.RetryPolicy
	keepGoing bool
	store     *lift.Store
	ptr       bool
}

// liftBatch lifts every named binary from its entry point through the
// facade and prints a one-line summary per binary plus corpus totals. The
// exit status is decided after the trace and metrics flush, so even an
// unhealthy (or interrupted) batch keeps its observability output.
func liftBatch(ctx context.Context, paths []string, cfg batchConfig, obsv *observer) {
	reqs := make([]lift.Request, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		im, err := image.Load(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		reqs = append(reqs, lift.Binary(path, im))
	}
	opts := append([]lift.Option{
		lift.Jobs(cfg.jobs), lift.Timeout(cfg.timeout), lift.Retry(cfg.retry),
	}, obsv.opts...)
	if cfg.store != nil {
		opts = append(opts, lift.WithStore(cfg.store))
	}
	if cfg.ptr {
		opts = append(opts, lift.PointerFacts())
	}
	sum := lift.Run(ctx, reqs, opts...)
	for _, r := range sum.Results {
		note := ""
		if r.Quarantined {
			note = fmt.Sprintf(" (quarantined after %d attempts)", r.Attempts)
		}
		fmt.Printf("%-32s %-12s instrs=%-6d states=%-6d A=%-3d B=%-3d C=%-3d %8s%s\n",
			r.Name, r.Status, r.Stats.Graph.Instructions, r.Stats.Graph.States,
			r.Stats.Graph.ResolvedInd, r.Stats.Graph.UnresolvedJump,
			r.Stats.Graph.UnresolvedCall, r.Stats.Wall.Round(time.Millisecond), note)
		if r.PanicMsg != "" {
			fmt.Printf("  panic: %s\n", r.PanicMsg)
		}
		if r.StoreWriteErr != nil {
			fmt.Printf("  store write: %v\n", r.StoreWriteErr)
		}
	}
	cs := sum.Cache.Stats()
	fmt.Printf("%d lifted, %d unprovable, %d concurrency, %d timeout, %d deadline, %d error, %d panic in %s; solver memo %.0f%% of %d queries, %d exact\n",
		sum.Lifted, sum.Unprovable, sum.Concurrency, sum.Timeouts, sum.Deadlines, sum.Errors, sum.Panics,
		sum.Wall.Round(time.Millisecond), 100*cs.HitRate(), cs.Queries, cs.Exact)
	if sum.Retried > 0 || sum.Quarantined > 0 {
		fmt.Printf("%d retried, %d quarantined\n", sum.Retried, sum.Quarantined)
	}
	obsv.flush()
	code := 0
	if sum.StoreWriteErrors > 0 {
		// The lifts completed, but a re-run would lift these again, so
		// the batch fails even with -keep-going.
		fmt.Fprintf(os.Stderr, "hglift: store: write-errors=%d\n", sum.StoreWriteErrors)
		code = 1
	}
	if sum.Lifted < len(sum.Results) || sum.Quarantined > 0 {
		if sum.Lifted < len(sum.Results) {
			fmt.Fprintf(os.Stderr, "hglift: %d of %d binaries did not lift\n",
				len(sum.Results)-sum.Lifted, len(sum.Results))
		}
		if !cfg.keepGoing {
			code = 1
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

func printStats(w io.Writer, s hoare.Stats) {
	fmt.Fprintf(w, "  instructions=%d states=%d edges=%d resolved=%d unresolved-jumps=%d unresolved-calls=%d\n",
		s.Instructions, s.States, s.Edges, s.ResolvedInd, s.UnresolvedJump, s.UnresolvedCall)
}

// printDetails writes a graph's obligations and assumptions to the report,
// and its .hg text (dump) and theory (thy) to standard output.
func printDetails(report io.Writer, fr *core.FuncResult, dump, thy bool) {
	if fr.Graph == nil {
		return
	}
	for _, o := range fr.Graph.Obligations {
		fmt.Fprintf(report, "  obligation: %s\n", o)
	}
	for _, a := range fr.Graph.Assumptions {
		fmt.Fprintf(report, "  assumption: %s\n", a)
	}
	if dump {
		os.Stdout.Write(hoare.Marshal(fr.Graph))
	}
	if thy {
		fmt.Println(triple.ExportTheory(fr.Graph, fr.Name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hglift:", err)
	os.Exit(1)
}
