package lift_test

// Facade-level coverage of incremental lifting: a cold run populates the
// store, a warm run over a freshly regenerated (byte-identical) corpus
// performs zero lifts and summarises byte-identically, and flipping one
// function in one unit re-lifts exactly that unit.

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/image"
	"repro/lift"
)

// storeShape is a small mixed directory: lifted and unprovable units,
// binaries included, so the store sees both task kinds and several
// statuses.
var storeShape = corpus.DirShape{
	Name: "storetest", Kind: corpus.KindBinary, Lifted: 4, Unprovable: 1,
	MinStmts: 2, MaxStmts: 6, Helpers: 2,
}

const storeSeed = 11

func storeRequests(t *testing.T) ([]lift.Request, *corpus.Directory) {
	t.Helper()
	dir, err := corpus.BuildDirectory(storeShape, storeSeed)
	if err != nil {
		t.Fatal(err)
	}
	return lift.UnitRequests(dir.Units), dir
}

func TestStoreWarmRunLiftsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graphs.hgcs")
	reqs, _ := storeRequests(t)

	st, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := lift.Run(context.Background(), reqs, lift.Jobs(2), lift.WithStore(st))
	if cold.StoreHits+cold.StoreMisses != len(reqs) {
		t.Fatalf("cold run: hits=%d misses=%d over %d requests",
			cold.StoreHits, cold.StoreMisses, len(reqs))
	}
	if cold.StoreMisses == 0 {
		t.Fatal("cold run hit an empty store")
	}

	// A separate process regenerating the same corpus: reopen the store
	// from disk, rebuild byte-identical images, run again.
	st2, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Dropped() != 0 || st2.Len() == 0 {
		t.Fatalf("reopened store: len=%d dropped=%d", st2.Len(), st2.Dropped())
	}
	reqs2, _ := storeRequests(t)
	warm := lift.Run(context.Background(), reqs2, lift.Jobs(2), lift.WithStore(st2))
	if warm.StoreMisses != 0 || warm.StoreHits != len(reqs2) {
		t.Fatalf("warm run lifted: hits=%d misses=%d, want %d/0",
			warm.StoreHits, warm.StoreMisses, len(reqs2))
	}
	for _, r := range warm.Results {
		if !r.FromStore {
			t.Fatalf("%s: not served from store", r.Name)
		}
	}
	if got, want := warm.Canonical(), cold.Canonical(); got != want {
		t.Fatalf("warm summary diverges from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

func TestStoreSingleFunctionInvalidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graphs.hgcs")
	reqs, _ := storeRequests(t)
	st, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	lift.Run(context.Background(), reqs, lift.Jobs(2), lift.WithStore(st))

	// Rebuild the corpus and change exactly one function in exactly one
	// unit — the incremental-build scenario. Only that unit may re-lift.
	dir, err := corpus.BuildDirectory(storeShape, storeSeed)
	if err != nil {
		t.Fatal(err)
	}
	flipped := dir.Units[0]
	if _, err := corpus.FlipUnit(flipped); err != nil {
		t.Fatal(err)
	}
	st2, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := lift.Run(context.Background(), lift.UnitRequests(dir.Units),
		lift.Jobs(2), lift.WithStore(st2))
	if sum.StoreMisses != 1 || sum.StoreHits != len(dir.Units)-1 {
		t.Fatalf("after one-function flip: hits=%d misses=%d, want %d/1",
			sum.StoreHits, sum.StoreMisses, len(dir.Units)-1)
	}
	for _, r := range sum.Results {
		if r.Name == flipped.Name && r.FromStore {
			t.Fatalf("%s: flipped unit served from store", r.Name)
		}
		if r.Name != flipped.Name && !r.FromStore {
			t.Fatalf("%s: unchanged unit re-lifted", r.Name)
		}
	}
}

// TestStoreKeysPointerFacts runs the ptr_ units, which carry their own
// budget configurations, against one store without pointer facts and then
// with PointerFacts. PointerFacts must reach each per-request override, and
// with it the store key: the first facts run misses every task, and
// repeating it hits every task.
func TestStoreKeysPointerFacts(t *testing.T) {
	dir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	reqs := lift.UnitRequests(dir.Units)
	overrides := 0
	for _, r := range reqs {
		if r.Config != nil {
			overrides++
		}
	}
	if overrides == 0 {
		t.Fatal("no ptr_ unit carries its own configuration")
	}
	st, err := lift.OpenStore(filepath.Join(t.TempDir(), "graphs.hgcs"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...lift.Option) *lift.Summary {
		return lift.Run(context.Background(), reqs, append([]lift.Option{lift.Jobs(2), lift.WithStore(st)}, opts...)...)
	}
	if off := run(); off.StoreMisses != len(reqs) {
		t.Fatalf("run without facts: hits=%d misses=%d, want 0/%d", off.StoreHits, off.StoreMisses, len(reqs))
	}
	on := run(lift.PointerFacts())
	if on.StoreHits != 0 || on.StoreMisses != len(reqs) {
		t.Fatalf("first run with facts: hits=%d misses=%d, want 0/%d", on.StoreHits, on.StoreMisses, len(reqs))
	}
	again := run(lift.PointerFacts())
	if again.StoreHits != len(reqs) || again.StoreMisses != 0 {
		t.Fatalf("second run with facts: hits=%d misses=%d, want %d/0", again.StoreHits, again.StoreMisses, len(reqs))
	}
	if got, want := again.Canonical(), on.Canonical(); got != want {
		t.Fatalf("warm facts run diverges from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestStoreDecodedGraphsCheckConcurrently lifts two CoreUtils binaries
// into a store and re-runs them warm against images loaded afresh from
// the same bytes, as a new process would. Each graph the warm run decodes
// must prove, under lift.Check on four workers, what its lifted graph
// proves, theorem by theorem. The workers read the decoded vertices
// concurrently, and those share per-graph slabs of states, predicates and
// clause lists; CI repeats this test under the race detector.
func TestStoreDecodedGraphsCheckConcurrently(t *testing.T) {
	units, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	units = units[:2]
	path := filepath.Join(t.TempDir(), "graphs.hgcs")
	st, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := lift.Run(context.Background(), lift.UnitRequests(units), lift.Jobs(2), lift.WithStore(st))

	fresh := make([]*corpus.Unit, len(units))
	for i, u := range units {
		img, err := image.Load(u.Image.Raw())
		if err != nil {
			t.Fatal(err)
		}
		c := *u
		c.Image = img
		fresh[i] = &c
	}
	st2, err := lift.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	warm := lift.Run(context.Background(), lift.UnitRequests(fresh), lift.Jobs(2), lift.WithStore(st2))
	if warm.StoreMisses != 0 {
		t.Fatalf("warm run lifted %d of %d units", warm.StoreMisses, len(units))
	}

	checked := 0
	for i, r := range warm.Results {
		lifted := cold.Results[i].Binary.Funcs
		for j, f := range r.Binary.Funcs {
			if f.Graph == nil {
				continue
			}
			got := lift.Check(context.Background(), fresh[i].Image, f.Graph, lift.Jobs(4))
			want := lift.Check(context.Background(), units[i].Image, lifted[j].Graph, lift.Jobs(4))
			if !slices.Equal(got.Sorted(), want.Sorted()) {
				t.Errorf("%s: the decoded graph checks\n%v\nthe lifted one\n%v", f.Name, got.Sorted(), want.Sorted())
			}
			if got.Proven == 0 {
				t.Errorf("%s: the decoded graph proves no theorem", f.Name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no decoded graph was checked")
	}
}
