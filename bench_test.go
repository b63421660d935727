package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 5):
//
//	BenchmarkTable1_*    — per-directory lifting of the Xen-shaped corpus
//	BenchmarkTable2_*    — per-binary Step 1 + Step 2 of the CoreUtils corpus
//	BenchmarkFigure3_*   — lifting time across function sizes
//	BenchmarkWeirdEdge   — the Section 2 example
//	BenchmarkFailures    — the Section 5.3 rejections
//	BenchmarkAblation*   — the design-choice ablations called out in DESIGN.md
//
// cmd/xenbench prints the corresponding tables; the benchmarks measure the
// same pipelines under testing.B. Corpora are generated once per process.
// Corpus lifts go through the pipeline scheduler exactly as cmd/xenbench
// does; the Table 1 benchmarks run at one worker so per-directory numbers
// stay comparable across machines, with a _parallel variant measuring the
// pool at runtime.NumCPU().

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/ptr"
	"repro/internal/solver"
	"repro/lift"
)

// benchScale keeps per-iteration work benchmark-friendly; cmd/xenbench
// runs the full-size corpus.
const benchScale = 0.01

var (
	benchDirs     map[string]*corpus.Directory
	benchDirsOnce sync.Once

	benchCU     []*corpus.Unit
	benchCUOnce sync.Once
)

func table1Dirs(b *testing.B) map[string]*corpus.Directory {
	b.Helper()
	benchDirsOnce.Do(func() {
		benchDirs = map[string]*corpus.Directory{}
		for _, shape := range corpus.XenSuite(benchScale) {
			dir, err := corpus.BuildDirectory(shape, 1)
			if err != nil {
				panic(err)
			}
			benchDirs[shape.Name] = dir
		}
	})
	return benchDirs
}

func coreutils(b *testing.B) []*corpus.Unit {
	b.Helper()
	benchCUOnce.Do(func() {
		units, err := corpus.CoreUtilsSuite(0.12)
		if err != nil {
			panic(err)
		}
		benchCU = units
	})
	return benchCU
}

// liftDir lifts every unit of a directory once through the facade (which
// honours each unit's step budget via lift.UnitRequests).
func liftDir(b *testing.B, dir *corpus.Directory, jobs int) *lift.Summary {
	b.Helper()
	sum := lift.Run(context.Background(), lift.UnitRequests(dir.Units), lift.Jobs(jobs))
	if sum.Panics != 0 {
		b.Fatalf("%d lifts panicked", sum.Panics)
	}
	return sum
}

func benchDir(b *testing.B, name string, jobs int) {
	dir := table1Dirs(b)[name]
	if dir == nil {
		b.Fatalf("no directory %q", name)
	}
	var sum *lift.Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = liftDir(b, dir, jobs)
	}
	// Solver memo effectiveness of the last iteration's run, for the
	// BENCH_*.json trajectory (scripts/bench.sh).
	b.ReportMetric(100*sum.Cache.Stats().HitRate(), "hit%")
}

func BenchmarkTable1_bin(b *testing.B)          { benchDir(b, "bin", 1) }
func BenchmarkTable1_xenbin(b *testing.B)       { benchDir(b, "xen/bin", 1) }
func BenchmarkTable1_libexec(b *testing.B)      { benchDir(b, "libexec", 1) }
func BenchmarkTable1_sbin(b *testing.B)         { benchDir(b, "sbin", 1) }
func BenchmarkTable1_lib(b *testing.B)          { benchDir(b, "lib", 1) }
func BenchmarkTable1_xenfsimage(b *testing.B)   { benchDir(b, "xenfsimage", 1) }
func BenchmarkTable1_distpackages(b *testing.B) { benchDir(b, "dist-packages", 1) }
func BenchmarkTable1_lowlevel(b *testing.B)     { benchDir(b, "lowlevel", 1) }

// BenchmarkTable1_lib_parallel measures the pipeline's speed-up on the
// largest directory with the pool at full width.
func BenchmarkTable1_lib_parallel(b *testing.B) { benchDir(b, "lib", runtime.NumCPU()) }

// BenchmarkTable1_lib_warmstore re-runs the largest directory against a
// pre-populated Hoare-graph store (internal/hgstore): every task must hit,
// so the timed loop performs zero lifts and the ratio to
// BenchmarkTable1_lib is the incremental-lifting payoff. Each iteration
// loads its images afresh from their ELF bytes, as a re-run in a new
// process does.
func BenchmarkTable1_lib_warmstore(b *testing.B) {
	dir := table1Dirs(b)["lib"]
	st, err := lift.OpenStore(filepath.Join(b.TempDir(), "graphs.hgcs"))
	if err != nil {
		b.Fatal(err)
	}
	cold := lift.Run(context.Background(), lift.UnitRequests(dir.Units),
		lift.Jobs(1), lift.WithStore(st))
	if cold.Panics != 0 {
		b.Fatalf("%d lifts panicked", cold.Panics)
	}
	var sum *lift.Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = lift.Run(context.Background(), lift.UnitRequests(freshImages(b, dir.Units)),
			lift.Jobs(1), lift.WithStore(st))
		if sum.StoreMisses != 0 {
			b.Fatalf("warm run lifted: %d misses over %d units",
				sum.StoreMisses, len(dir.Units))
		}
	}
	b.ReportMetric(float64(sum.StoreHits), "hits")
}

// freshImages returns copies of units whose images are loaded again from
// their ELF bytes, one image per image the units share.
func freshImages(b *testing.B, units []*corpus.Unit) []*corpus.Unit {
	b.Helper()
	loaded := map[*image.Image]*image.Image{}
	out := make([]*corpus.Unit, len(units))
	for i, u := range units {
		img, ok := loaded[u.Image]
		if !ok {
			var err error
			if img, err = image.Load(u.Image.Raw()); err != nil {
				b.Fatal(err)
			}
			loaded[u.Image] = img
		}
		c := *u
		c.Image = img
		out[i] = &c
	}
	return out
}

// BenchmarkStorePut times one write-through Put — seal, encode, and the
// locked append and fsync of one record — into a store holding the
// largest Table 1 directory: the write perfbench's store-incremental makes
// for the unit it edits each round.
func BenchmarkStorePut(b *testing.B) {
	dir := table1Dirs(b)["lib"]
	st, err := lift.OpenStore(filepath.Join(b.TempDir(), "graphs.hgcs"))
	if err != nil {
		b.Fatal(err)
	}
	st.SetAutoFlush(false)
	lift.Run(context.Background(), lift.UnitRequests(dir.Units), lift.Jobs(1), lift.WithStore(st))
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	st.SetAutoFlush(true)
	var unit *corpus.Unit
	for _, u := range dir.Units {
		if u.Expect == core.StatusLifted {
			unit = u
			break
		}
	}
	if unit == nil {
		b.Fatal("no lifted unit")
	}
	l := core.New(unit.Image, core.DefaultConfig())
	fr := l.LiftFuncCtx(context.Background(), unit.FuncAddr, unit.Name)
	e := &hgstore.Entry{Status: fr.Status, Graph: fr.Stats(), Sem: l.Counters(),
		Funcs: []*core.FuncResult{fr}, EntryIndex: -1}
	key := hgstore.TaskKey(unit.Image, unit.FuncAddr, false, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(key, e, unit.Image); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable2 lifts one CoreUtils-shaped binary and proves every vertex —
// the full Step 1 + Step 2 pipeline of Table 2.
func benchTable2(b *testing.B, name string) {
	var unit *corpus.Unit
	for _, u := range coreutils(b) {
		if u.Name == name {
			unit = u
		}
	}
	if unit == nil {
		b.Fatalf("no unit %q", name)
	}
	req := lift.Binary(unit.Name, unit.Image)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lift.One(context.Background(), req, lift.Jobs(1))
		if r.Status != core.StatusLifted {
			b.Fatalf("%s: %s", unit.Name, r.Status)
		}
		for _, fr := range r.Binary.Funcs {
			rep := lift.Check(context.Background(), unit.Image, fr.Graph, lift.Jobs(2))
			if rep.Failed != 0 {
				b.Fatalf("%s/%s: %d failed theorems", unit.Name, fr.Name, rep.Failed)
			}
		}
	}
}

func BenchmarkTable2_hexdump(b *testing.B) { benchTable2(b, "hexdump") }
func BenchmarkTable2_od(b *testing.B)      { benchTable2(b, "od") }
func BenchmarkTable2_wc(b *testing.B)      { benchTable2(b, "wc") }
func BenchmarkTable2_tar(b *testing.B)     { benchTable2(b, "tar") }
func BenchmarkTable2_du(b *testing.B)      { benchTable2(b, "du") }
func BenchmarkTable2_gzip(b *testing.B)    { benchTable2(b, "gzip") }

// benchFigure3 lifts single functions of a given size class, producing the
// per-size series of Figure 3 (verification time vs instruction count).
func benchFigure3(b *testing.B, stmts int) {
	shape := corpus.DirShape{
		Name: "fig3", Kind: corpus.KindLibFunc, Lifted: 3,
		MinStmts: stmts, MaxStmts: stmts, Helpers: 1,
	}
	dir, err := corpus.BuildDirectory(shape, int64(stmts))
	if err != nil {
		b.Fatal(err)
	}
	var instrs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, u := range dir.Units {
			l := core.New(u.Image, core.DefaultConfig())
			fr := l.LiftFuncCtx(context.Background(), u.FuncAddr, u.Name)
			instrs += fr.Stats().Instructions
		}
	}
	b.ReportMetric(float64(instrs), "instructions")
}

func BenchmarkFigure3_small(b *testing.B)  { benchFigure3(b, 2) }
func BenchmarkFigure3_medium(b *testing.B) { benchFigure3(b, 6) }
func BenchmarkFigure3_large(b *testing.B)  { benchFigure3(b, 12) }
func BenchmarkFigure3_xlarge(b *testing.B) { benchFigure3(b, 24) }

// BenchmarkWeirdEdge lifts and proves the Section 2 binary.
func BenchmarkWeirdEdge(b *testing.B) {
	s, err := corpus.WeirdEdge()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := core.New(s.Image, core.DefaultConfig())
		r := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		if r.Status != core.StatusLifted {
			b.Fatal(r.Status)
		}
		rep := lift.Check(context.Background(), s.Image, r.Graph, lift.Jobs(2))
		if rep.Failed != 0 {
			b.Fatal("weird-edge theorems failed")
		}
	}
}

// BenchmarkFailures runs the Section 5.3 rejection scenarios.
func BenchmarkFailures(b *testing.B) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			l := core.New(s.Image, core.DefaultConfig())
			l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		}
	}
}

// ablationConfig lifts the lib directory under a modified configuration.
func benchAblation(b *testing.B, mutate func(*core.Config)) {
	dir := table1Dirs(b)["lib"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range dir.Units {
			cfg := core.DefaultConfig()
			if u.Budget > 0 {
				cfg.MaxStates = u.Budget
			}
			mutate(&cfg)
			l := core.New(u.Image, cfg)
			l.LiftFuncCtx(context.Background(), u.FuncAddr, u.Name)
		}
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations.
func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) {})
}

// BenchmarkAblationNoJoin disables state joining: every visit explores a
// fresh state (bounded only by MaxStates).
func BenchmarkAblationNoJoin(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) {
		cfg.NoJoin = true
		cfg.MaxStates = 2000
	})
}

// BenchmarkAblationJoinCodePointers joins states holding different
// code-pointer immediates, losing indirection resolution.
func BenchmarkAblationJoinCodePointers(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.JoinCodePointers = true })
}

// BenchmarkAblationNoForkUnknown destroys on undecided pointer relations
// instead of forking memory models.
func BenchmarkAblationNoForkUnknown(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.Sem.MM.ForkUnknown = false })
}

// BenchmarkAblationNoBaseAssumptions removes the paper's implicit
// provenance-separation assumptions: most functions then fail.
func BenchmarkAblationNoBaseAssumptions(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.Sem.AssumeBaseSeparation = false })
}

// Pointer pre-pass benchmarks: the pathological ptr_ directory lifted
// without and with per-function fact tables. The pair's fork+destroy and
// wall-time ratio is the PR-10 payoff recorded in BENCH_PR10.json; the
// factless run deliberately includes the forkbomb unit's budget-exhausted
// timeout, because that exhausted budget IS the cost being measured.
var (
	benchPtrDir  *corpus.Directory
	benchPtrOnce sync.Once
)

func ptrPathology(b *testing.B) *corpus.Directory {
	b.Helper()
	benchPtrOnce.Do(func() {
		dir, err := corpus.PtrPathology()
		if err != nil {
			panic(err)
		}
		benchPtrDir = dir
	})
	return benchPtrDir
}

func benchPtrPathology(b *testing.B, facts bool) {
	dir := ptrPathology(b)
	opts := []lift.Option{lift.Jobs(1)}
	if facts {
		opts = append(opts, lift.PointerFacts())
	}
	var sum *lift.Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = lift.Run(context.Background(), lift.UnitRequests(dir.Units), opts...)
		if sum.Panics != 0 {
			b.Fatalf("%d lifts panicked", sum.Panics)
		}
	}
	b.ReportMetric(float64(sum.Stats.Sem.Forks+sum.Stats.Sem.Destroys), "fork+destroy")
}

func BenchmarkPtrPathology(b *testing.B)      { benchPtrPathology(b, false) }
func BenchmarkPtrPathologyFacts(b *testing.B) { benchPtrPathology(b, true) }

// BenchmarkPtrAnalyze isolates the pre-pass itself — one abstract-
// interpretation walk plus the O(regions²) pair stage per unit — to show
// its cost is noise next to the exploration it saves.
func BenchmarkPtrAnalyze(b *testing.B) {
	dir := ptrPathology(b)
	var facts int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		facts = 0
		for _, u := range dir.Units {
			an := ptr.Analyze(u.Image, u.FuncAddr)
			facts += an.Stats.Proven + an.Stats.Hypotheses
		}
	}
	b.ReportMetric(float64(facts), "facts")
}

// BenchmarkMemModelIns measures raw memory-model insertion (the ins
// function of Definition 3.7) on a growing stack frame.
func BenchmarkMemModelIns(b *testing.B) {
	cfg := memmodel.DefaultConfig()
	o := benchOracle{p: pred.New()}
	for i := 0; i < b.N; i++ {
		var f memmodel.Forest
		for s := 0; s < 16; s++ {
			res := memmodel.Ins(benchRegion(int64(-8*(s+1))), f, o, cfg)
			f = res[0].Forest
		}
	}
}

// BenchmarkMemModelJoin measures the memory-model join (Definition 3.12)
// off its fast path: 32 pairs of forests over one stack frame and three
// pointer arguments, each built by inserting the same regions in its own
// order and taking its own forks, so the pairs hold reordered, one-sided
// and nested classes. One op joins every pair.
func BenchmarkMemModelJoin(b *testing.B) {
	cfg := memmodel.DefaultConfig()
	o := benchOracle{p: pred.New()}
	var regions []solver.Region
	for s := 0; s < 8; s++ {
		regions = append(regions, benchRegion(int64(-8*(s+1))))
	}
	regions = append(regions, solver.Region{Addr: benchRegion(-16).Addr, Size: 16})
	for _, v := range []expr.Var{"rdi0", "rsi0", "rdx0"} {
		regions = append(regions, solver.Region{Addr: expr.V(v), Size: 8})
	}
	rng := rand.New(rand.NewSource(1))
	build := func() memmodel.Forest {
		var f memmodel.Forest
		pick := rng.Intn(3)
		for _, i := range rng.Perm(len(regions)) {
			res := memmodel.Ins(regions[i], f, o, cfg)
			f = res[pick%len(res)].Forest
		}
		return f
	}
	var pairs [][2]memmodel.Forest
	for len(pairs) < 32 {
		if m0, m1 := build(), build(); !memmodel.SameOrdered(m0, m1) {
			pairs = append(pairs, [2]memmodel.Forest{m0, m1})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			benchForest = memmodel.Join(p[0], p[1])
		}
	}
}

// benchForest keeps BenchmarkMemModelJoin's result live.
var benchForest memmodel.Forest

type benchOracle struct{ p *pred.Pred }

func (o benchOracle) Compare(r0, r1 solver.Region) solver.Result {
	return solver.Compare(o.p, r0, r1)
}

func benchRegion(off int64) solver.Region {
	return solver.Region{Addr: expr.Add(expr.V("rsp0"), expr.Word(uint64(off))), Size: 8}
}
