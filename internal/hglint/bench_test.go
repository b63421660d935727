package hglint

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/internal/solver"
)

// suite holds the lifted graphs of CoreUtilsSuite(0.17) and the solver
// cache the lift shared, built once per test binary.
var suite struct {
	once   sync.Once
	graphs []*hoare.Graph
	cache  *solver.Cache
	err    error
}

// suiteGraphs lifts CoreUtilsSuite(0.17) through one shared solver cache,
// as the pipeline does, and returns the lifted graphs and that cache.
func suiteGraphs(tb testing.TB) ([]*hoare.Graph, *solver.Cache) {
	tb.Helper()
	suite.once.Do(func() {
		cus, err := corpus.CoreUtilsSuite(0.17)
		if err != nil {
			suite.err = err
			return
		}
		suite.cache = solver.NewCache()
		for _, cu := range cus {
			cfg := core.DefaultConfig()
			cfg.Sem.SolverCache = suite.cache
			res := core.New(cu.Image, cfg).LiftBinaryCtx(context.Background(), cu.Name)
			for _, fr := range res.Funcs {
				if fr.Status == core.StatusLifted && fr.Graph != nil {
					suite.graphs = append(suite.graphs, fr.Graph)
				}
			}
		}
	})
	if suite.err != nil {
		tb.Fatal(suite.err)
	}
	if len(suite.graphs) == 0 {
		tb.Fatal("no lifted graphs")
	}
	return suite.graphs, suite.cache
}

// BenchmarkLint lints every lifted graph of CoreUtilsSuite(0.17) with the
// lift's shared solver cache. The cache outlives the iterations, so from
// the second one on every predicate-dependent query is a memo hit: this
// measures lint with a warm memo.
func BenchmarkLint(b *testing.B) {
	graphs, cache := suiteGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			Lint(g, WithCache(cache))
		}
	}
}

// BenchmarkLintFresh lints the same graphs with a new solver cache per
// iteration, so the memo misses as it does in the prove step of
// perfbench's coreutils-prove workload, which lints each round's graphs
// against that round's fresh lift cache.
func BenchmarkLintFresh(b *testing.B) {
	graphs, _ := suiteGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := solver.NewCache()
		for _, g := range graphs {
			Lint(g, WithCache(cache))
		}
	}
}

// TestLintConcurrentSharedCache lints the suite's graphs from several
// goroutines against one solver cache, as perfbench's prove step does:
// the memo is shared, the per-call state (sorted lists, memory classes)
// is not, so every report must be byte-equal to the serial run's.
func TestLintConcurrentSharedCache(t *testing.T) {
	graphs, _ := suiteGraphs(t)
	want := make([][]byte, len(graphs))
	for i, g := range graphs {
		want[i] = Lint(g, WithCache(solver.NewCache())).JSON()
	}
	const workers, rounds = 4, 2
	cache := solver.NewCache()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if got := Lint(graphs[i], WithCache(cache)).JSON(); !bytes.Equal(got, want[i]) {
					t.Errorf("graph %s: concurrent report differs from the serial one:\n%s\nvs\n%s",
						graphs[i].FuncName, got, want[i])
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for i := range graphs {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}
