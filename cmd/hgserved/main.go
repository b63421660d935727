// Command hgserved runs the lifting-as-a-service daemon: an HTTP/JSON
// API over the repro/lift facade where clients submit x86-64 ELF
// binaries (single or batch) and receive per-function progress and
// verdicts as an NDJSON stream. Duplicate submissions are answered from
// the content-addressed Hoare-graph store with zero lifts; the store's
// locked flush, which reads what other writers appended before it
// appends, makes sharing its container with concurrent hglift -store runs
// safe.
//
// Usage:
//
//	hgserved [-addr :8441] [-store f] [-parallel N] [-queue N]
//	         [-tenant-share N] [-jobs N] [-timeout d]
//	         [-trace out.jsonl] [-metrics]
//
// Admission control bounds the daemon on two axes: at most -parallel
// submissions run concurrently with -queue more waiting, and each tenant
// may hold at most -tenant-share of those slots. A submission beyond
// either bound is rejected immediately with 429 and a Retry-After hint —
// the queue never grows without bound. /metricz serves the live metrics
// registry; /healthz reports readiness.
//
// SIGINT/SIGTERM shut the daemon down gracefully: new submissions bounce
// with 503, in-flight lifts are cancelled (StatusCancelled on their
// streams, which still close with result and summary lines), and the
// store is flushed exactly once before exit.
//
// Load-generator mode drives an already-running daemon instead of
// serving, proving throughput, dedup and backpressure under concurrent
// clients:
//
//	hgserved -loadgen -target http://host:8441 [-clients N] [-rounds N]
//
// Each client submits the corpus scenario batch -rounds times under its
// own tenant; the report counts ok/rejected/cancelled requests, store
// hits and misses, and checks every completed round renders the same
// canonical summary (dedup correctness under concurrency).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/serveclient"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgserved:", err)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", ":8441", "listen address")
		storePath   = flag.String("store", "", "content-addressed Hoare-graph store (enables dedup)")
		parallel    = flag.Int("parallel", 2, "concurrent pipeline runs")
		queue       = flag.Int("queue", 8, "submissions allowed to wait for a run slot")
		tenantShare = flag.Int("tenant-share", 0, "max in-flight submissions per tenant (0 = half the capacity)")
		jobs        = flag.Int("jobs", 0, "pipeline workers per run (0 = all CPUs)")
		timeout     = flag.Duration("timeout", 0, "per-lift wall-clock budget (0 = none)")
		traceOut    = flag.String("trace", "", "write the event trace as JSONL to this file")
		showMetrics = flag.Bool("metrics", false, "print the metrics registry on exit")

		loadgen = flag.Bool("loadgen", false, "run the load generator against -target instead of serving")
		target  = flag.String("target", "http://localhost:8441", "loadgen: daemon base URL")
		clients = flag.Int("clients", 4, "loadgen: concurrent clients")
		rounds  = flag.Int("rounds", 4, "loadgen: submissions per client")
	)
	flag.Parse()

	if *loadgen {
		os.Exit(runLoadgen(*target, *clients, *rounds))
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
	metrics := obs.NewMetrics()

	var st *hgstore.Store
	if *storePath != "" {
		var err error
		if st, err = hgstore.Open(*storePath); err != nil {
			fatal(err)
		}
		if n := st.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "hgserved: store: dropped %d corrupt or stale-version records\n", n)
		}
		fmt.Fprintf(os.Stderr, "hgserved: store %s: %d entries\n", st.Path(), st.Len())
	}

	engine := serve.New(serve.Options{
		Store:       st,
		Sinks:       sinks,
		Metrics:     metrics,
		Parallel:    *parallel,
		QueueDepth:  *queue,
		TenantShare: *tenantShare,
		Jobs:        *jobs,
		Timeout:     *timeout,
	})
	srv := &http.Server{Addr: *addr, Handler: engine.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hgserved: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// One exit point: whatever ends the daemon — a signal or a listener
	// failure — the engine drains, the store flushes once, the trace and
	// metrics land, and only then is the status decided.
	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "hgserved: shutting down")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "hgserved:", err)
		code = 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engine.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hgserved: engine shutdown:", err)
		code = 1
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hgserved: http shutdown:", err)
		code = 1
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "hgserved: trace:", err)
			code = 1
		}
		traceFile.Close()
	}
	if *showMetrics {
		fmt.Print(metrics.Dump())
	}
	os.Exit(code)
}

// runLoadgen hammers the target daemon with clients×rounds scenario
// batches and reports throughput, dedup and backpressure behaviour. The
// exit status is non-zero when no request completed, or when completed
// rounds disagree on the canonical summary (a dedup corruption).
func runLoadgen(target string, clients, rounds int) int {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		fatal(err)
	}
	specs := make([]serveclient.Spec, 0, len(scenarios))
	for _, s := range scenarios {
		specs = append(specs, serveclient.Spec{Name: s.Name, ELF: s.Raw, Funcs: []uint64{s.FuncAddr}})
	}

	var (
		ok, rejected, cancelled, failed atomic.Int64
		hits, misses                    atomic.Int64
		mu                              sync.Mutex
		canonicals                      = map[string]int{}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &serveclient.Client{BaseURL: target, Tenant: fmt.Sprintf("loadgen-%d", c)}
			for r := 0; r < rounds; r++ {
				res, err := client.Lift(context.Background(), specs...)
				var re *serveclient.RetryError
				switch {
				case errors.As(err, &re):
					rejected.Add(1)
					// Honest backpressure: wait the hinted delay, move on
					// to the next round rather than hammering.
					time.Sleep(re.After)
					continue
				case err != nil:
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: client %d round %d: %v\n", c, r, err)
					continue
				}
				if res.Summary.Cancelled > 0 {
					cancelled.Add(1)
					continue
				}
				ok.Add(1)
				hits.Add(int64(res.Summary.StoreHits))
				misses.Add(int64(res.Summary.StoreMisses))
				mu.Lock()
				canonicals[res.Summary.Canonical]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	total := ok.Load() + rejected.Load() + cancelled.Load() + failed.Load()
	rate := float64(ok.Load()) / wall.Seconds()
	fmt.Printf("loadgen: clients=%d rounds=%d requests=%d ok=%d rejected=%d cancelled=%d failed=%d hits=%d misses=%d wall=%s rate=%.1f/s\n",
		clients, rounds, total, ok.Load(), rejected.Load(), cancelled.Load(), failed.Load(),
		hits.Load(), misses.Load(), wall.Round(time.Millisecond), rate)

	code := 0
	if ok.Load() == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no request completed")
		code = 1
	}
	if len(canonicals) > 1 {
		fmt.Fprintf(os.Stderr, "loadgen: %d distinct canonical summaries across completed rounds, want 1 (dedup corruption)\n", len(canonicals))
		code = 1
	} else if len(canonicals) == 1 {
		fmt.Println("loadgen: all completed rounds rendered one canonical summary")
	}
	if failed.Load() > 0 {
		code = 1
	}
	return code
}
