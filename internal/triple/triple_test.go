package triple

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elf64"
	"repro/internal/expr"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/x86"
)

const textBase = 0x401000

func buildAndLift(t *testing.T, build func(a *x86.Asm), rodata []byte) (*image.Image, *core.FuncResult) {
	t.Helper()
	a := x86.NewAsm(textBase)
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	eb := elf64.NewExec(textBase)
	eb.AddSection(".text", elf64.SHFExecinstr, textBase, code)
	if rodata != nil {
		eb.AddSection(".rodata", 0, 0x4a0000, rodata)
	}
	img, err := eb.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	l := core.New(im, core.DefaultConfig())
	return im, l.LiftFuncCtx(context.Background(), textBase, "f")
}

func TestCheckStraightLine(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
		a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
		a.I(x86.POP, x86.RegOp(x86.RBP, 8))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s %v", r.Status, r.Reasons)
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(2))
	if !rep.AllProven() {
		t.Fatalf("failed theorems:\n%s", dumpFailures(rep))
	}
	if rep.Proven < 5 {
		t.Fatalf("proven: %d", rep.Proven)
	}
}

func TestCheckBranchesAndLoops(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
		a.Label("loop")
		a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
		a.I(x86.CMP, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
		a.Jcc(x86.CondB, "loop")
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(5, 1))
		a.Jcc(x86.CondE, "five")
		a.I(x86.RET)
		a.Label("five")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(55, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s %v", r.Status, r.Reasons)
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(4))
	if !rep.AllProven() {
		t.Fatalf("failed theorems:\n%s", dumpFailures(rep))
	}
}

func TestCheckJumpTable(t *testing.T) {
	table := make([]byte, 16)
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(1, 1))
		a.Jcc(x86.CondA, "dflt")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RDI, 8, 0x4a0000, 8))
		a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
		a.Label("c0")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(0, 4))
		a.Jmp("end")
		a.Label("c1")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(1, 4))
		a.Jmp("end")
		a.Label("dflt")
		a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
		a.Label("end")
		a.I(x86.RET)
		// Patch the table now that the labels exist.
		for i, lbl := range []string{"c0", "c1"} {
			addr, _ := a.LabelAddr(lbl)
			for j := 0; j < 8; j++ {
				table[8*i+j] = byte(addr >> (8 * j))
			}
		}
	}, table)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s %v", r.Status, r.Reasons)
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(2))
	if !rep.AllProven() {
		t.Fatalf("failed theorems:\n%s", dumpFailures(rep))
	}
}

func TestCheckDetectsTampering(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatal(r.Status)
	}
	// Tamper with an invariant: claim rax = 6 at the ret vertex.
	tampered := false
	for _, v := range r.Graph.Vertices {
		if v.State != nil && v.Addr != textBase && v.ID != hoare.ExitID && v.ID != hoare.HaltID {
			v.State.Pred.SetReg(x86.RAX, expr.Word(6))
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("no vertex to tamper with")
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(1))
	if rep.AllProven() {
		t.Fatal("tampered invariant must fail verification")
	}
}

func TestCheckAnnotatedVertexAssumed(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.JMP, x86.RegOp(x86.RDI, 8)) // unresolvable
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s", r.Status)
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(1))
	if rep.Failed != 0 {
		t.Fatalf("annotated vertex must be assumed, not failed:\n%s", dumpFailures(rep))
	}
	if rep.Assumed == 0 {
		t.Fatal("expected an assumed theorem")
	}
}

func TestExportTheory(t *testing.T) {
	_, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 4))
		a.I(x86.RET)
	}, nil)
	thy := ExportTheory(r.Graph, "f_thy")
	for _, want := range []string{
		"theory f_thy",
		"definition P_401000",
		"lemma hoare_401000",
		"by htriple",
		"RSP s' = RSP\\<^sub>0 + 8",
		"end",
	} {
		if !strings.Contains(thy, want) {
			t.Errorf("theory missing %q:\n%s", want, thy)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	if Proven.String() != "proven" || Assumed.String() != "assumed" || Failed.String() != "FAILED" {
		t.Fatal("verdict names")
	}
}

func dumpFailures(rep *Report) string {
	var b strings.Builder
	for _, th := range rep.Sorted() {
		if th.Verdict == Failed {
			b.WriteString(string(th.Vertex) + ": " + th.Reason + "\n")
		}
	}
	return b.String()
}

var _ = hoare.ExitID

// TestSerialisedGraphVerifies saves a lifted graph as the graph file the
// store and hgprove -hg read, loads it back, and re-verifies every theorem
// on the loaded copy: the full export/import/validate pipeline. The loaded
// graph's report must equal the original graph's, theorem for theorem.
func TestSerialisedGraphVerifies(t *testing.T) {
	table := make([]byte, 16)
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(1, 1))
		a.Jcc(x86.CondA, "dflt")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RDI, 8, 0x4a0000, 8))
		a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
		a.Label("c0")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(1, 4))
		a.Jmp("end")
		a.Label("c1")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(2, 4))
		a.Jmp("end")
		a.Label("dflt")
		a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
		a.Label("end")
		a.I(x86.RET)
		for i, lbl := range []string{"c0", "c1"} {
			addr, _ := a.LabelAddr(lbl)
			for j := 0; j < 8; j++ {
				table[8*i+j] = byte(addr >> (8 * j))
			}
		}
	}, table)
	if r.Status != core.StatusLifted {
		t.Fatalf("lift: %s", r.Status)
	}
	want := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(2))
	if !want.AllProven() {
		t.Fatalf("original graph failed verification:\n%s", dumpFailures(want))
	}

	t.Run("binary", func(t *testing.T) {
		data := hgstore.MarshalGraph(r.Graph)
		loaded, err := hgstore.LoadGraph(im, data)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.FuncAddr != r.Graph.FuncAddr || loaded.RetSym != r.Graph.RetSym {
			t.Fatal("header mismatch")
		}
		if len(loaded.Vertices) != len(r.Graph.Vertices) || len(loaded.Edges) != len(r.Graph.Edges) {
			t.Fatalf("shape mismatch: %d/%d vertices, %d/%d edges",
				len(loaded.Vertices), len(r.Graph.Vertices), len(loaded.Edges), len(r.Graph.Edges))
		}
		// Invariants round-trip exactly (per-vertex predicate keys match).
		for id, v := range r.Graph.Vertices {
			lv := loaded.Vertices[id]
			if lv == nil {
				t.Fatalf("vertex %s lost", id)
			}
			if (v.State == nil) != (lv.State == nil) {
				t.Fatalf("vertex %s state presence mismatch", id)
			}
			if v.State != nil && v.State.Pred.Key() != lv.State.Pred.Key() {
				t.Fatalf("vertex %s predicate mismatch:\n%s\nvs\n%s",
					id, v.State.Pred.Key(), lv.State.Pred.Key())
			}
			if v.State != nil && v.State.Mem.Key() != lv.State.Mem.Key() {
				t.Fatalf("vertex %s model mismatch: %s vs %s", id, v.State.Mem, lv.State.Mem)
			}
		}
		// The loaded graph verifies exactly as the original does.
		rep := Check(context.Background(), im, loaded, sem.DefaultConfig(), Workers(2))
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("loaded graph's report differs from the original's:\n%+v\nvs\n%+v", rep, want)
		}
		// Marshalling the loaded graph is a fixed point.
		if !bytes.Equal(hgstore.MarshalGraph(loaded), data) {
			t.Fatal("marshal is not idempotent across a load")
		}
	})
}

func TestCheckParallelConsistency(t *testing.T) {
	// The parallel driver gives the same verdicts regardless of worker
	// count (the theorems are mutually independent).
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(3, 1))
		a.Jcc(x86.CondA, "hi")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(1, 4))
		a.I(x86.RET)
		a.Label("hi")
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(2, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatal(r.Status)
	}
	var reports []*Report
	for _, workers := range []int{0, 1, 4, 16} {
		reports = append(reports, Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(workers)))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Proven != reports[0].Proven ||
			reports[i].Assumed != reports[0].Assumed ||
			reports[i].Failed != reports[0].Failed {
			t.Fatalf("worker-count dependence: %+v vs %+v", reports[i], reports[0])
		}
	}
}

func TestTamperedMemoryModelFails(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -16, 8), x86.RegOp(x86.RDI, 8))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatal(r.Status)
	}
	// Claim a bogus aliasing relation in some vertex's model: merge the
	// stack slot and the return-address slot into one node.
	tampered := false
	for _, v := range r.Graph.Vertices {
		if v.State == nil || len(v.State.Mem) < 2 {
			continue
		}
		merged := &memmodel.Tree{
			Regions: append(append([]solver.Region{}, v.State.Mem[0].Regions...),
				v.State.Mem[1].Regions...),
		}
		v.State.Mem = memmodel.Forest{merged}
		tampered = true
		break
	}
	if !tampered {
		t.Skip("no vertex with two trees")
	}
	rep := Check(context.Background(), im, r.Graph, sem.DefaultConfig(), Workers(1))
	if rep.AllProven() {
		t.Fatal("bogus aliasing claim must fail verification")
	}
}

// TestCheckMachineReuseIsIndependent: a Step-2 worker checks theorem after
// theorem on one machine and recycles each theorem's outcome states into
// the next one's clones. Every theorem must come out as it does on a fresh
// machine, whatever the machine checked before, and so must the outcomes
// of the step behind it: each graph's vertices are checked in reverse
// order on one machine and compared with a fresh machine per vertex, under
// the graph's hypotheses and under none (which fails theorems, so reasons
// are compared too).
func TestCheckMachineReuseIsIndependent(t *testing.T) {
	cus, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	ptrDir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*hoare.Graph
	var imgs []*image.Image
	for _, u := range append(cus, ptrDir.Units...) {
		l := core.New(u.Image, core.DefaultConfig())
		var frs []*core.FuncResult
		if u.Kind == corpus.KindBinary {
			frs = l.LiftBinaryCtx(context.Background(), u.Name).Funcs
		} else {
			frs = []*core.FuncResult{l.LiftFuncCtx(context.Background(), u.FuncAddr, u.Name)}
		}
		for _, fr := range frs {
			if fr.Graph != nil {
				graphs = append(graphs, fr.Graph)
				imgs = append(imgs, u.Image)
			}
		}
	}
	render := func(outs []sem.Outcome) string {
		var b strings.Builder
		for _, o := range outs {
			fmt.Fprintf(&b, "%d %v %v\n", o.Kind, o.Target, o.State)
		}
		return b.String()
	}
	checked, failed := 0, 0
	for gi, g := range graphs {
		succs := successors(g)
		vertices := g.SortedVertices()
		for _, hyps := range [][]string{g.Assumptions, nil} {
			shared := sem.NewCheckMachine(imgs[gi], sem.DefaultConfig(), hyps)
			fresh := func() *sem.Machine { return sem.NewCheckMachine(imgs[gi], sem.DefaultConfig(), hyps) }
			for i := len(vertices) - 1; i >= 0; i-- {
				v := vertices[i]
				got := checkVertex(shared, g, v, succs[v.ID])
				if want := checkVertex(fresh(), g, v, succs[v.ID]); got != want {
					t.Fatalf("%s %s: on a reused machine %+v, on a fresh one %+v", g.FuncName, v.ID, got, want)
				}
				checked++
				if got.Verdict == Failed {
					failed++
				}
				inst, err := imgs[gi].Fetch(v.Addr)
				if err != nil || v.ID == hoare.ExitID || v.ID == hoare.HaltID {
					continue
				}
				outs, errShared := shared.Step(v.State, inst)
				want, errFresh := fresh().Step(v.State, inst)
				if (errShared == nil) != (errFresh == nil) || render(outs) != render(want) {
					t.Fatalf("%s %s: a reused machine steps to\n%s(%v), a fresh one to\n%s(%v)",
						g.FuncName, v.ID, render(outs), errShared, render(want), errFresh)
				}
				for _, o := range outs {
					shared.Recycle(o.State)
				}
			}
		}
	}
	if checked < 1000 || failed < 10 {
		t.Fatalf("too little checked: %d theorems, %d failed", checked, failed)
	}
}
