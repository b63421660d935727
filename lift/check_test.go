package lift_test

// Step 2 through the front door: lift.Check owns the checker's semantic
// configuration, so these tests pin what it checks a graph under: the
// separation hypotheses the graph lists, and no others.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elf64"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/triple"
	"repro/internal/x86"
	"repro/lift"
)

// liftedWithFacts lifts the ptr_ directory and the Section 2 weird-edge
// function with pointer facts and returns each lifted graph with its
// image, keyed by name.
func liftedWithFacts(t *testing.T) map[string]imageGraph {
	t.Helper()
	dir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	weird, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(lift.UnitRequests(dir.Units), lift.Func(weird.Name, weird.Image, weird.FuncAddr))
	sum := lift.Run(context.Background(), reqs, lift.Jobs(2), lift.PointerFacts())
	out := map[string]imageGraph{}
	for i, r := range sum.Results {
		if r.Status == core.StatusLifted {
			out[r.Name] = imageGraph{reqs[i].Img, r.Func.Graph}
		}
	}
	if len(out) != len(reqs) {
		t.Fatalf("%d of %d functions lifted with facts", len(out), len(reqs))
	}
	return out
}

// imageGraph is a lifted graph and the image it was lifted from.
type imageGraph struct {
	img *image.Image
	g   *hoare.Graph
}

// roundTrip returns the graph after a round trip through its graph file.
func roundTrip(t *testing.T, img *image.Image, g *hoare.Graph) *hoare.Graph {
	t.Helper()
	loaded, err := hgstore.LoadGraph(img, hgstore.MarshalGraph(g))
	if err != nil {
		t.Fatalf("%s: %v", g.FuncName, err)
	}
	return loaded
}

// TestCheckPointerFacts lifts the ptr_ directory and the weird-edge
// function with pointer facts, saves each graph as a graph file and loads
// it back: Check with no options must prove every theorem of every loaded
// graph, and of the graph with its list reversed, as an edited file may
// hold it. The graphs rest on the pointer pre-pass's separation
// hypotheses, and their assumption lists are all Step 2 learns of them.
func TestCheckPointerFacts(t *testing.T) {
	ctx := context.Background()
	for name, ig := range liftedWithFacts(t) {
		reversed := *ig.g
		reversed.Assumptions = slices.Clone(ig.g.Assumptions)
		slices.Reverse(reversed.Assumptions)
		graphs := map[string]*hoare.Graph{"saved": roundTrip(t, ig.img, ig.g), "reversed": &reversed}
		for form, g := range graphs {
			rep := lift.Check(ctx, ig.img, g)
			if !rep.AllProven() || rep.Proven == 0 {
				t.Errorf("%s (%s): %d proven, %d failed, %d skipped", name, form, rep.Proven, rep.Failed, rep.Skipped)
			}
		}
	}
}

// hypothesisAddr returns the instruction address of a separation
// hypothesis ("@<hex> : … ASSUMED SEPARATE FROM …").
func hypothesisAddr(t *testing.T, a string) uint64 {
	t.Helper()
	var addr uint64
	if _, err := fmt.Sscanf(a, "@%x :", &addr); err != nil {
		t.Fatalf("assumption %q: %v", a, err)
	}
	return addr
}

// failedAt reports whether the report has a failed theorem at addr.
func failedAt(rep *triple.Report, addr uint64) bool {
	return slices.ContainsFunc(rep.Theorems, func(th triple.Theorem) bool {
		return th.Verdict == triple.Failed && th.Addr == addr
	})
}

// TestCheckNeedsEachHypothesis removes the separation hypotheses of the
// ptr_ graphs lifted with facts, and the two the frame rule made in the
// weird-edge graph lifted without, one at a time: each removal must fail
// a theorem at the hypothesis's address, so Step 2 assumes a separation
// only when the graph lists it, whichever rule of Step 1 made it.
func TestCheckNeedsEachHypothesis(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]imageGraph{}
	for name, ig := range liftedWithFacts(t) {
		if strings.HasPrefix(name, "ptr_") {
			graphs[name] = ig
		}
	}
	weird, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(ctx, lift.Func(weird.Name, weird.Image, weird.FuncAddr))
	if res.Status != core.StatusLifted || len(res.Func.Graph.Assumptions) == 0 {
		t.Fatalf("weird-edge: %s, %d assumptions", res.Status, len(res.Func.Graph.Assumptions))
	}
	graphs["weird-edge without facts"] = imageGraph{weird.Image, res.Func.Graph}
	removed := 0
	for name, ig := range graphs {
		for i, a := range ig.g.Assumptions {
			if !strings.Contains(a, "ASSUMED SEPARATE FROM") {
				continue
			}
			g := *ig.g
			g.Assumptions = slices.Delete(slices.Clone(ig.g.Assumptions), i, i+1)
			if rep := lift.Check(ctx, ig.img, &g, lift.Jobs(2)); !failedAt(rep, hypothesisAddr(t, a)) {
				t.Errorf("%s without %q: no failed theorem at its address (%d proven, %d failed)",
					name, a, rep.Proven, rep.Failed)
			}
			removed++
		}
	}
	if removed < 50 {
		t.Fatalf("only %d separation hypotheses in the graphs", removed)
	}
	t.Logf("%d separation hypotheses removed one at a time", removed)
}

// sharedCodeBase is where sharedCodeBinary is assembled.
const sharedCodeBase = 0x401000

// sharedCodeBinary assembles a binary whose main calls g and then f, where
// f is a tail jump into g. Exploring f steps g's store again, at g's
// address and on the same initial-state symbols, so f's exploration makes
// the very separation hypothesis g's exploration recorded first.
func sharedCodeBinary(t *testing.T) *image.Image {
	t.Helper()
	a := x86.NewAsm(sharedCodeBase)
	a.Call("g")
	a.Call("f")
	a.I(x86.RET)
	a.Label("f")
	a.Jmp("g")
	a.Label("g")
	a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
	a.I(x86.RET)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := a.LabelAddr("f")
	g, _ := a.LabelAddr("g")
	b := elf64.NewExec(sharedCodeBase)
	b.AddSection(".text", elf64.SHFExecinstr, sharedCodeBase, code)
	b.AddFunc("main", sharedCodeBase, f-sharedCodeBase)
	b.AddFunc("f", f, g-f)
	b.AddFunc("g", g, sharedCodeBase+uint64(len(code))-g)
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCheckSharedCode lifts sharedCodeBinary with one lifter for the
// whole binary: every function's graph must list the hypotheses its own
// exploration makes, so Check proves every theorem of each, in process
// and after a round trip through its graph file.
func TestCheckSharedCode(t *testing.T) {
	img := sharedCodeBinary(t)
	ctx := context.Background()
	res := lift.One(ctx, lift.Binary("shared", img))
	if res.Status != core.StatusLifted || res.Binary == nil {
		t.Fatalf("shared: %s", res.Status)
	}
	if n := len(res.Binary.Funcs); n != 3 {
		t.Fatalf("shared: %d functions lifted, want 3", n)
	}
	for _, fr := range res.Binary.Funcs {
		graphs := map[string]*hoare.Graph{"saved": roundTrip(t, img, fr.Graph), "lifted": fr.Graph}
		for form, g := range graphs {
			if rep := lift.Check(ctx, img, g); !rep.AllProven() || rep.Proven == 0 {
				t.Errorf("%s (%s) with %q: %d proven, %d failed, %d skipped",
					fr.Name, form, g.Assumptions, rep.Proven, rep.Failed, rep.Skipped)
			}
		}
	}
}

// TestCheckCancelled checks a graph under an already-cancelled context:
// no theorem is attempted, each reports Skipped on the tracer, and the
// report never claims full verification.
func TestCheckCancelled(t *testing.T) {
	s, err := corpus.Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(context.Background(), lift.Func(s.Name, s.Image, s.FuncAddr))
	if res.Status != core.StatusLifted {
		t.Fatalf("ret2win: %s", res.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ring := obs.NewRing(1 << 10)
	rep := lift.Check(ctx, s.Image, res.Func.Graph, lift.Observe(ring))
	if n := len(rep.Theorems); n == 0 || rep.Skipped != n || rep.Proven+rep.Failed != 0 {
		t.Fatalf("cancelled check: %d theorems, %d proven, %d failed, %d skipped",
			n, rep.Proven, rep.Failed, rep.Skipped)
	}
	if rep.AllProven() {
		t.Fatal("a cancelled check must not claim AllProven")
	}
	skipped := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KTheorem && e.Status == triple.Skipped.String() {
			skipped++
		}
	}
	if skipped != rep.Skipped {
		t.Fatalf("%d skipped theorem events, report has %d", skipped, rep.Skipped)
	}
}
