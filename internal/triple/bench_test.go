package triple

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/sem"
)

// benchUnit is one Step-2 work unit: a lifted graph and the binary it was
// lifted from.
type benchUnit struct {
	img   *image.Image
	graph *hoare.Graph
}

// benchCorpus lifts a scaled-down Table 2 corpus once and shares its
// graphs across the sub-benchmarks, so each measures Step-2 checking
// only, never lifting.
var benchCorpus struct {
	once  sync.Once
	units []benchUnit
	err   error
}

func benchUnits(b *testing.B) []benchUnit {
	benchCorpus.once.Do(func() {
		cus, err := corpus.CoreUtilsSuite(0.5)
		if err != nil {
			benchCorpus.err = err
			return
		}
		for _, cu := range cus {
			l := core.New(cu.Image, core.DefaultConfig())
			res := l.LiftBinaryCtx(context.Background(), cu.Name)
			for _, fr := range res.Funcs {
				if fr.Status == core.StatusLifted && fr.Graph != nil {
					benchCorpus.units = append(benchCorpus.units, benchUnit{cu.Image, fr.Graph})
				}
			}
		}
	})
	if benchCorpus.err != nil {
		b.Fatal(benchCorpus.err)
	}
	if len(benchCorpus.units) == 0 {
		b.Fatal("no lifted units")
	}
	return benchCorpus.units
}

// BenchmarkStep2 checks every lifted graph of the corpus in this process,
// one graph after another, each graph's theorems fanned over n goroutines
// (Workers(n)) — how xenbench -table2 runs Step 2 at -jobs n. workers=1
// is the serial baseline; workers=GOMAXPROCS is the in-process path at
// full width.
func BenchmarkStep2(b *testing.B) {
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, n := range widths {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			units := benchUnits(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, u := range units {
					Check(context.Background(), u.img, u.graph, sem.DefaultConfig(), Workers(n))
				}
			}
		})
	}
}
