// Package repro is a Go reproduction of "Formally Verified Lifting of
// C-Compiled x86-64 Binaries" (Verbeek, Bockenek, Fu, Ravindran; PLDI
// 2022). It holds no code of its own, only the end-to-end tests and
// benchmarks of the front door, package repro/lift, which lifts ELF
// binaries to Hoare Graphs (Step 1) and independently re-verifies every
// vertex as a Hoare triple (Step 2):
//
//	img, err := image.Load(data)
//	res := lift.One(ctx, lift.Binary("a.out", img))
//	for _, fr := range res.Binary.Funcs {
//		rep := lift.Check(ctx, img, fr.Graph)
//		fmt.Println(fr.Name, rep.Proven, "theorems proven")
//	}
package repro

// End-to-end tests of the public surface: lifting, the ablation options,
// Step 2, the function-spec resolver and the disassembly renderer.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/triple"
	"repro/lift"
)

// compileSample builds a small program — a switch over a jump table in
// main, calling a helper — and loads its image.
func compileSample(t testing.TB) (*cgen.Result, *image.Image) {
	t.Helper()
	prog := &cgen.Program{
		Globals: []cgen.Global{{Name: "g0", Size: 8}},
		Funcs: []*cgen.Func{
			{Name: "helper", Params: 1, Locals: 1,
				Body: []cgen.Stmt{
					cgen.Assign{Dst: 0, Src: cgen.Bin{Op: cgen.OpMul, L: cgen.Param(0), R: cgen.Const(3)}},
					cgen.Return{X: cgen.Local(0)},
				}},
			{Name: "main", Params: 1, Locals: 1,
				Body: []cgen.Stmt{
					cgen.Switch{X: cgen.Param(0),
						Cases: [][]cgen.Stmt{
							{cgen.Assign{Dst: 0, Src: cgen.Call{Name: "helper", Args: []cgen.Expr{cgen.Const(2)}}}},
							{cgen.Assign{Dst: 0, Src: cgen.Const(9)}},
						},
						Default: []cgen.Stmt{cgen.Assign{Dst: 0, Src: cgen.Const(1)}}},
					cgen.Return{X: cgen.Local(0)},
				}},
		},
		Entry: "main",
	}
	bin, err := cgen.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Load(bin.ELF)
	if err != nil {
		t.Fatal(err)
	}
	return bin, img
}

// liftSample resolves the sample's function by address, as the commands'
// -func flag does, and lifts it.
func liftSample(t *testing.T, fn string, opts ...lift.Option) (lift.Result, *image.Image) {
	t.Helper()
	bin, img := compileSample(t)
	addr, name, err := img.ResolveFunc(fmt.Sprintf("%#x", bin.Funcs[fn]))
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(context.Background(), lift.Func(name, img, addr), opts...)
	if res.Func == nil {
		t.Fatalf("%s: %s %s", fn, res.Status, res.PanicMsg)
	}
	return res, img
}

func TestLiftBinaryAPI(t *testing.T) {
	_, img := compileSample(t)
	res := lift.One(context.Background(), lift.Binary("sample", img))
	st := res.Stats.Graph
	// The switch's jump table must be resolved; _start, main and helper
	// are lifted.
	if res.Status != core.StatusLifted || st.Instructions == 0 || st.States == 0 ||
		st.ResolvedInd == 0 || len(res.Binary.Funcs) < 3 {
		t.Fatalf("%s: %+v", res.Status, st)
	}
}

func TestLiftFunctionAPI(t *testing.T) {
	res, _ := liftSample(t, "helper")
	fr := res.Func
	if fr.Status != core.StatusLifted || !fr.Returns || fr.Name != "helper" {
		t.Fatalf("%q: %s returns=%t", fr.Name, fr.Status, fr.Returns)
	}
	if text := string(hoare.Marshal(fr.Graph)); !strings.Contains(text, "vertex") || !strings.Contains(text, "edge") {
		t.Fatal("graph text missing")
	}
	if !strings.Contains(triple.ExportTheory(fr.Graph, fr.Name), "lemma hoare_") {
		t.Fatal("theory export missing")
	}
}

// TestVerifyAPI runs Step 2 through lift.Check on one function, at two
// worker counts, and on every function of the binary.
func TestVerifyAPI(t *testing.T) {
	ctx := context.Background()
	res, img := liftSample(t, "main")
	rep := lift.Check(ctx, img, res.Func.Graph)
	serial := lift.Check(ctx, img, res.Func.Graph, lift.Jobs(1))
	if !rep.AllProven() || rep.Proven == 0 || serial.Proven != rep.Proven || !serial.AllProven() {
		t.Fatalf("main: %d proven, %d failed, %d skipped; serial %d proven",
			rep.Proven, rep.Failed, rep.Skipped, serial.Proven)
	}
	for _, fr := range lift.One(ctx, lift.Binary("sample", img)).Binary.Funcs {
		if rep := lift.Check(ctx, img, fr.Graph); !rep.AllProven() || rep.Proven == 0 {
			t.Fatalf("%s: %d proven, %d failed, %d skipped", fr.Name, rep.Proven, rep.Failed, rep.Skipped)
		}
	}
}

func TestFuncSymbolsAPI(t *testing.T) {
	bin, img := compileSample(t)
	for _, fn := range []string{"main", "helper"} {
		if addr, name, err := img.ResolveFunc(fn); err != nil || addr != bin.Funcs[fn] || name != fn {
			t.Fatalf("%s: (%#x, %q, %v), compiled at %#x", fn, addr, name, err, bin.Funcs[fn])
		}
	}
}

func TestDisasmAPI(t *testing.T) {
	res, _ := liftSample(t, "helper")
	if lines := res.Func.Graph.Disasm(); len(lines) < 5 || !strings.Contains(lines[0], "push rbp") {
		t.Fatalf("disassembly: %v", lines)
	}
}

func TestOptionsAblations(t *testing.T) {
	// Joining code pointers loses the jump-table resolution.
	if res, _ := liftSample(t, "main", lift.JoinCodePointers()); res.Stats.Graph.UnresolvedJump == 0 {
		t.Fatalf("ablation must lose the indirection: %+v", res.Stats.Graph)
	}
	// A tiny budget, set on the request's configuration, times out.
	bin, img := compileSample(t)
	cfg := core.DefaultConfig()
	cfg.MaxStates = 2
	req := lift.Func("main", img, bin.Funcs["main"])
	req.Config = &cfg
	if res := lift.One(context.Background(), req); res.Status != core.StatusTimeout {
		t.Fatalf("budget: %s", res.Status)
	}
}

// TestObligationSurfacesInAPI checks that the Section 5.3 obligation text
// reaches the graph the front door returns.
func TestObligationSurfacesInAPI(t *testing.T) {
	s, err := corpus.Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(context.Background(), lift.Func(s.Name, s.Image, s.FuncAddr))
	if res.Func == nil || res.Func.Graph == nil {
		t.Fatalf("ret2win: %s", res.Status)
	}
	if obl := res.Func.Graph.Obligations; len(obl) == 0 || !strings.Contains(obl[0], "MUST PRESERVE") {
		t.Fatalf("obligations: %v", obl)
	}
}

// TestGeneratedCorpusThroughAPI lifts a few random programs through the
// front door.
func TestGeneratedCorpusThroughAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5; i++ {
		bin, err := cgen.Compile(cgen.GenProgram(rng, 2, cgen.DefaultFeatures()))
		if err != nil {
			t.Fatal(err)
		}
		img, err := image.Load(bin.ELF)
		if err != nil {
			t.Fatal(err)
		}
		if res := lift.One(context.Background(), lift.Binary("trial", img)); res.Status != core.StatusLifted {
			t.Fatalf("trial %d: %s", i, res.Status)
		}
	}
}
