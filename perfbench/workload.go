package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/triple"
	"repro/lift"
)

// A workload is one closed-loop batch: every round submits the whole corpus
// to lift.Run with one worker per CPU and waits for it, then (when proving)
// lints and Step-2-checks every lifted graph.
type workload struct {
	name string
	// tailPct is the percentile reported as verdict_tail_ms. A run goes on
	// until at least ten samples lie beyond it. ptr-alias's p90 is the
	// median of its slowest unit, whose higher percentiles are steal and
	// GC noise on a task of a few milliseconds.
	tailPct float64
	// corpus generates the units; corpusSeed feeds the generators that
	// take one.
	corpus func(corpusSeed int64, scale float64) ([]*corpus.Unit, error)
	prove  bool // hglint.Lint + triple.Check on every lifted graph
	store  bool // write-through Hoare-graph store, seeded flips per round
}

// table1Units sizes the Table 1 corpus: the paper's 2214 units shrunk to
// this many with every directory's outcome counts in proportion (see
// table1Shapes): 21 lifted library functions, 1 with an unprovable return
// address, 1 xenfsimage and 1 lowlevel function, and none of the 63
// binaries, which would be 0.7 of a unit. A round takes about 3 s on two
// CPUs. coreutilsScale sizes the Table 2 binaries; at 0.17 they keep the
// paper's size ratios (3:4:1:7:1:4 functions for hexdump, od, wc, tar, du
// and gzip, against 18:22:4:40:7:25).
const (
	table1Units    = 24
	coreutilsScale = 0.17
	// flipFrac is the share of units store-incremental edits per round.
	flipFrac = 0.03
)

var workloads = []*workload{
	{name: "table1-cold", tailPct: 90, corpus: table1},
	{name: "coreutils-prove", tailPct: 75, corpus: coreutils, prove: true},
	{name: "store-incremental", tailPct: 99, corpus: table1, store: true},
	{name: "ptr-alias", tailPct: 90, corpus: ptrAlias},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// table1 generates the Table 1 corpus. Its seed is not the workload seed:
// across generator seeds the corpus's lifting cost varies by ±25%, wider
// than any bound the benchmark could keep, so the workload seed varies only
// what leaves the amount of work alone, and --corpus-seed selects another
// corpus for a claim.
func table1(seed int64, scale float64) ([]*corpus.Unit, error) {
	var units []*corpus.Unit
	for _, shape := range table1Shapes(int(math.Round(table1Units * scale))) {
		if shape.Lifted+shape.Unprovable+shape.Concurrent+shape.Timeout == 0 {
			continue
		}
		dir, err := corpus.BuildDirectory(shape, seed)
		if err != nil {
			return nil, err
		}
		units = append(units, dir.Units...)
	}
	return units, nil
}

// table1Shapes is Table 1 with n units in all. corpus.XenSuite scales each
// count separately with a floor of one, which at small scales gives every
// binary directory and every rare outcome a unit and so turns a corpus of 3%
// binaries and 2% rejected or timed-out units into one of 40% each. Here
// the n units are shared out over the (directory, outcome) cells of the
// full table by largest remainder, so the mix stays the paper's as far as n
// units can show it and a rare cell may get none.
func table1Shapes(n int) []corpus.DirShape {
	shapes := corpus.XenSuite(1)
	cells := func(s *corpus.DirShape) []*int {
		return []*int{&s.Lifted, &s.Unprovable, &s.Concurrent, &s.Timeout}
	}
	total := 0
	for i := range shapes {
		for _, c := range cells(&shapes[i]) {
			total += *c
		}
	}
	type share struct {
		count *int
		rem   float64
	}
	var shares []share
	given := 0
	for i := range shapes {
		for _, c := range cells(&shapes[i]) {
			q := float64(*c) * float64(n) / float64(total)
			*c = int(q)
			given += *c
			shares = append(shares, share{c, q - float64(*c)})
		}
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].rem > shares[j].rem })
	for _, s := range shares[:n-given] {
		*s.count++
	}
	return shapes
}

func coreutils(_ int64, scale float64) ([]*corpus.Unit, error) {
	return corpus.CoreUtilsSuite(coreutilsScale * scale)
}

// ptrAlias is the ptr_ pathological directory plus the Section 2 weird-edge
// function, the idiom it scales up. The fifth unit also keeps the median
// inside one unit's latency band instead of between two.
func ptrAlias(int64, float64) ([]*corpus.Unit, error) {
	dir, err := corpus.PtrPathology()
	if err != nil {
		return nil, err
	}
	we, err := corpus.WeirdEdge()
	if err != nil {
		return nil, err
	}
	return append(dir.Units, &corpus.Unit{
		Name: we.Name, Kind: corpus.KindLibFunc, Image: we.Image,
		FuncAddr: we.FuncAddr, Expect: core.StatusLifted,
	}), nil
}

// mix describes a fixture's corpus: how many binaries and library
// functions it has and how many units expect each outcome.
func (f *fixture) mix() string {
	kinds := map[corpus.UnitKind]int{}
	expect := map[core.Status]int{}
	for _, s := range f.specs {
		kinds[s.unit.Kind]++
		expect[s.unit.Expect]++
	}
	var outcomes []string
	for st, n := range expect {
		outcomes = append(outcomes, fmt.Sprintf("%d %s", n, st))
	}
	sort.Strings(outcomes)
	return fmt.Sprintf("%d units: %d binaries, %d library functions; expected %s",
		len(f.specs), kinds[corpus.KindBinary], kinds[corpus.KindLibFunc], strings.Join(outcomes, ", "))
}

// unitSpec is a unit as raw ELF bytes: every round loads fresh images, as a
// new process would, so the decode cache never carries over.
type unitSpec struct {
	unit corpus.Unit // Image nil
	raw  []byte
}

func (s *unitSpec) load(raw []byte) (*corpus.Unit, error) {
	img, err := image.Load(raw)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", s.unit.Name, err)
	}
	u := s.unit
	u.Image = img
	return &u, nil
}

// fixture is a set-up workload, ready to run rounds.
type fixture struct {
	w     *workload
	jobs  int
	specs []unitSpec
	// Store state: the container set-up wrote, restored before every
	// round; the flipped ELF bytes of every editable unit; and the edits,
	// one set per round in a seeded cycle that flips each editable unit
	// once. A run measures whole cycles, so the seed changes the order of
	// the edits but not the work.
	dir      string
	path     string
	pristine []byte
	flipped  map[int][]byte
	flipSets [][]int
	// refs holds the deterministic counts of the first round of each edit
	// set (the warm-up round for set 0).
	refs map[int]map[string]uint64
}

// cycle is the number of rounds in which every edit set runs once.
func (f *fixture) cycle() int {
	if len(f.flipSets) == 0 {
		return 1
	}
	return len(f.flipSets)
}

// setup generates the corpus, populates the store and runs one warm-up
// round. The fixture owns a directory under the build directory when the
// workload uses a store; close removes it.
func setup(ctx context.Context, w *workload, cfg runConfig, rec *recorder) (*fixture, error) {
	units, err := w.corpus(cfg.corpusSeed, cfg.scale)
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w, jobs: cfg.jobs, refs: map[int]map[string]uint64{}}
	for _, u := range units {
		spec := unitSpec{unit: *u, raw: u.Image.Raw()}
		spec.unit.Image = nil
		f.specs = append(f.specs, spec)
	}
	if w.store {
		if err := f.populate(ctx, cfg.seed, rec); err != nil {
			f.close()
			return nil, err
		}
	}
	warm, err := f.round(ctx, nil, 0)
	if err != nil {
		f.close()
		return nil, err
	}
	f.refs[0] = warm.counts
	return f, nil
}

// populate lifts the corpus once into a buffered store, flushes it in one
// write, keeps the container bytes, and plans the edits.
func (f *fixture) populate(ctx context.Context, seed int64, rec *recorder) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return err
	}
	f.dir = dir
	f.path = filepath.Join(dir, "graphs.hgcs")
	st, err := lift.OpenStore(f.path)
	if err != nil {
		return err
	}
	st.SetAutoFlush(false)
	units, err := f.load(-1)
	if err != nil {
		return err
	}
	sum := lift.Run(ctx, lift.UnitRequests(units), lift.Jobs(f.jobs), lift.WithStore(st))
	// Units with identical code share an entry, so some may already hit.
	if sum.StoreHits+sum.StoreMisses != len(units) {
		return fmt.Errorf("store population: %d hits + %d misses for %d units", sum.StoreHits, sum.StoreMisses, len(units))
	}
	start := time.Now()
	if err := st.Flush(); err != nil {
		return err
	}
	rec.add("Store.Flush", "", 0, start, time.Now())
	if f.pristine, err = os.ReadFile(f.path); err != nil {
		return err
	}
	return f.planFlips(seed)
}

// planFlips flips one immediate (corpus.FlipUnit) in every unit expected to
// lift that has one, and splits those units, in seeded order, into edit
// sets of a few percent of the corpus each. Loading the original bytes
// again is the flip back.
func (f *fixture) planFlips(seed int64) error {
	f.flipped = map[int][]byte{}
	var editable []int
	for i, s := range f.specs {
		if s.unit.Expect != core.StatusLifted {
			continue
		}
		u, err := s.load(s.raw)
		if err != nil {
			return err
		}
		if _, err := corpus.FlipUnit(u); err != nil {
			continue // no flippable immediate
		}
		f.flipped[i] = u.Image.Raw()
		editable = append(editable, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(editable), func(i, j int) {
		editable[i], editable[j] = editable[j], editable[i]
	})
	k := int(flipFrac*float64(len(f.specs)) + 0.5)
	if k < 1 {
		k = 1
	}
	for i := 0; i+k <= len(editable); i += k {
		f.flipSets = append(f.flipSets, editable[i:i+k])
	}
	if len(f.flipSets) == 0 {
		return fmt.Errorf("only %d units could be edited, want %d per round", len(editable), k)
	}
	return nil
}

func (f *fixture) close() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// load builds a round's units from raw bytes, with the flipped bytes of
// edit set set (none when set is out of range).
func (f *fixture) load(set int) ([]*corpus.Unit, error) {
	edit := map[int]bool{}
	if set >= 0 && set < len(f.flipSets) {
		for _, i := range f.flipSets[set] {
			edit[i] = true
		}
	}
	units := make([]*corpus.Unit, len(f.specs))
	for i := range f.specs {
		raw := f.specs[i].raw
		if edit[i] {
			raw = f.flipped[i]
		}
		u, err := f.specs[i].load(raw)
		if err != nil {
			return nil, err
		}
		units[i] = u
	}
	return units, nil
}

// taskWalls is an obs sink keeping each task's scheduler wall time: the
// time to verdict of a store hit, which Result.Stats.Wall does not hold (a
// hit replays the cold lift's statistics).
type taskWalls struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

func (t *taskWalls) Emit(e obs.Event) {
	if e.Kind != obs.KTaskFinish {
		return
	}
	t.mu.Lock()
	t.m[e.Func] = e.Wall
	t.mu.Unlock()
}

// task is one unit's outcome in a round.
type task struct {
	latency time.Duration
	failure string // "" when the verdict matches the oracle
}

// roundResult is one measured round.
type roundResult struct {
	set    int // edit set
	wall   time.Duration
	tasks  []task
	counts map[string]uint64 // deterministic counts (see determinismKeys)
	layers map[string]float64
	alloc  uint64 // bytes allocated during the round
}

// round runs the corpus once, with edit set set applied when the workload
// uses a store. With a recorder it is a traced round: the lifter's own
// metrics are observed and the benchmark's spans recorded, and the
// per-layer ledger is filled in after the timed part.
func (f *fixture) round(ctx context.Context, rec *recorder, set int) (*roundResult, error) {
	if f.w.store {
		// Every round starts from the container set-up wrote.
		if err := os.WriteFile(f.path, f.pristine, 0o644); err != nil {
			return nil, err
		}
	}
	var ms0 memSample
	ms0.read()
	start := time.Now()
	roundID := rec.add("round", "", 0, start, time.Time{})
	units, err := f.load(set)
	if err != nil {
		return nil, err
	}
	opts := []lift.Option{lift.Jobs(f.jobs)}
	var sinks []obs.Sink
	var metrics *obs.Metrics
	walls := &taskWalls{m: map[string]time.Duration{}}
	if rec != nil {
		metrics = obs.NewMetrics()
		sinks = append(sinks, metrics, walls)
	} else if f.w.store {
		sinks = append(sinks, walls)
	}
	if len(sinks) > 0 {
		opts = append(opts, lift.Observe(sinks...))
	}
	var openWall time.Duration
	if f.w.store {
		t0 := time.Now()
		st, err := lift.OpenStore(f.path)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec.add("lift.OpenStore", "", roundID, t0, t1)
		openWall = t1.Sub(t0)
		opts = append(opts, lift.WithStore(st))
	}
	runStart := time.Now()
	sum := lift.Run(ctx, lift.UnitRequests(units), opts...)
	rec.add("lift.Run", "", roundID, runStart, time.Now())

	rr := &roundResult{set: set, tasks: make([]task, len(units)), counts: summaryCounts(sum)}
	var pr proofs
	if f.w.prove {
		pr = f.prove(ctx, units, sum, rr, rec, roundID)
		rr.counts["triple.theorems"] = uint64(pr.theorems)
	}
	rr.wall = time.Since(start)
	rec.end(roundID, time.Now())
	var ms1 memSample
	ms1.read()
	rr.alloc = ms1.totalAlloc - ms0.totalAlloc

	for i, r := range sum.Results {
		t := &rr.tasks[i]
		if f.w.store {
			t.latency += walls.m[r.Name]
		} else {
			t.latency += r.Stats.Wall
		}
		if why := oracle(units[i].Expect, r); why != "" {
			t.failure = why
		}
	}
	if rec != nil {
		rr.layers = f.ledger(units, sum, metrics, walls, rec, roundID, ledgerInput{
			proofs: pr, openWall: openWall, mem: [2]memSample{ms0, ms1},
		})
	}
	return rr, nil
}

// proofs is what proving a round's graphs measured.
type proofs struct {
	lints                          []*hglint.Report
	lintWall, checkWall            time.Duration // summed over calls
	graphs, theorems, failed, skip int
}

// prove lints every lifted graph (jobs graphs at a time), then Step-2
// checks each graph with triple.Workers(jobs), after all lifts, so no more
// than jobs goroutines are ever busy. Lint and check times are added to the
// owning task's latency; a Failed or Skipped theorem fails the task.
func (f *fixture) prove(ctx context.Context, units []*corpus.Unit, sum *lift.Summary, rr *roundResult, rec *recorder, roundID int) proofs {
	type job struct {
		task int
		fr   *core.FuncResult
	}
	var jobs []job
	for i, r := range sum.Results {
		for _, fr := range resultGraphs(r) {
			jobs = append(jobs, job{i, fr})
		}
	}
	pr := proofs{lints: make([]*hglint.Report, len(jobs)), graphs: len(jobs)}
	lintTime := make([]time.Duration, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < f.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t0 := time.Now()
				pr.lints[j] = hglint.Lint(jobs[j].fr.Graph, hglint.WithCache(sum.Cache))
				t1 := time.Now()
				lintTime[j] = t1.Sub(t0)
				rec.add("hglint.Lint", jobs[j].fr.Name, roundID, t0, t1)
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, jb := range jobs {
		t := &rr.tasks[jb.task]
		t.latency += lintTime[j]
		pr.lintWall += lintTime[j]
		t0 := time.Now()
		rep := triple.Check(ctx, units[jb.task].Image, jb.fr.Graph, sem.DefaultConfig(), triple.Workers(f.jobs))
		t1 := time.Now()
		rec.add("triple.Check", jb.fr.Name, roundID, t0, t1)
		t.latency += t1.Sub(t0)
		pr.checkWall += t1.Sub(t0)
		pr.theorems += len(rep.Theorems) - rep.Skipped
		pr.failed += rep.Failed
		pr.skip += rep.Skipped
		if rep.Failed+rep.Skipped > 0 && t.failure == "" {
			t.failure = fmt.Sprintf("%s: %d theorems failed, %d skipped", jb.fr.Name, rep.Failed, rep.Skipped)
		}
	}
	return pr
}

// resultGraphs returns the successfully lifted function graphs of a result.
func resultGraphs(r lift.Result) []*core.FuncResult {
	var frs []*core.FuncResult
	switch {
	case r.Binary != nil:
		frs = r.Binary.Funcs
	case r.Func != nil:
		frs = []*core.FuncResult{r.Func}
	}
	out := frs[:0:0]
	for _, fr := range frs {
		if fr.Status == core.StatusLifted && fr.Graph != nil {
			out = append(out, fr)
		}
	}
	return out
}

// oracle judges one verdict against the generator's expected status. A
// timeout unit that now lifts within its budget is not a failure.
func oracle(expect core.Status, r lift.Result) string {
	switch {
	case r.Status == core.StatusPanic || r.Status == core.StatusError || r.Status == core.StatusCancelled:
		return fmt.Sprintf("%s: %s %s", r.Name, r.Status, r.PanicMsg)
	case r.Status == core.StatusLifted && (expect == core.StatusUnprovableRet || expect == core.StatusConcurrency):
		return fmt.Sprintf("%s: lifted, expected %s", r.Name, expect)
	case expect == core.StatusLifted && r.Status != core.StatusLifted:
		return fmt.Sprintf("%s: %s, expected lifted", r.Name, r.Status)
	}
	return ""
}

// determinismKeys are the counts that must repeat exactly between runs of
// the same code. Solver hits are not among them: the memo cache is shared
// by the workers, so hits depend on their interleaving.
var determinismKeys = []string{
	"core.states", "core.joins", "core.edges", "solver.queries",
	"memmodel.forks", "memmodel.destroys", "memmodel.fallbacks",
	"triple.theorems", "hgstore.hits", "hgstore.misses", "summary.digest",
}

// summaryCounts extracts the deterministic counts of a Run, including a
// digest of its canonical rendering.
func summaryCounts(sum *lift.Summary) map[string]uint64 {
	g, s := sum.Stats.Graph, sum.Stats.Sem
	return map[string]uint64{
		"core.states":        uint64(g.States),
		"core.joins":         uint64(g.Joins),
		"core.edges":         uint64(g.Edges),
		"solver.queries":     s.SolverQueries,
		"memmodel.forks":     s.Forks,
		"memmodel.destroys":  s.Destroys,
		"memmodel.fallbacks": s.Fallbacks,
		"triple.theorems":    0,
		"hgstore.hits":       uint64(sum.StoreHits),
		"hgstore.misses":     uint64(sum.StoreMisses),
		"summary.digest":     digest(sum.Canonical()),
	}
}

func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// countMismatches lists the deterministic counts that differ from ref.
func countMismatches(ref, got map[string]uint64) []string {
	var out []string
	for _, k := range determinismKeys {
		if ref[k] != got[k] {
			out = append(out, fmt.Sprintf("%s %d != %d", k, got[k], ref[k]))
		}
	}
	sort.Strings(out)
	return out
}
