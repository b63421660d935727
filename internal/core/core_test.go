package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/elf64"
	"repro/internal/emu"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/x86"
)

const (
	textBase   = 0x401000
	pltBase    = 0x400500
	rodataBase = 0x4a0000
)

// builder assembles a test binary with optional PLT externals and rodata.
type builder struct {
	t        *testing.T
	asm      *x86.Asm
	externs  []string
	rodata   []byte
	funcSyms map[string]uint64
}

func newBuilder(t *testing.T) *builder {
	return &builder{t: t, asm: x86.NewAsm(textBase), funcSyms: map[string]uint64{}}
}

// Func labels a function start.
func (b *builder) Func(name string) *x86.Asm {
	b.asm.Label(name)
	addr, _ := b.asm.LabelAddr(name)
	b.funcSyms[name] = addr
	return b.asm
}

// Extern registers an external and returns its PLT stub address.
func (b *builder) Extern(name string) uint64 {
	for i, e := range b.externs {
		if e == name {
			return pltBase + uint64(16*i)
		}
	}
	b.externs = append(b.externs, name)
	return pltBase + uint64(16*(len(b.externs)-1))
}

// CallExtern emits a call to the named external's stub.
func (b *builder) CallExtern(name string) {
	b.asm.CallAbs(b.Extern(name))
}

// Image finalises the binary.
func (b *builder) Image() *image.Image {
	b.t.Helper()
	code, err := b.asm.Finish()
	if err != nil {
		b.t.Fatal(err)
	}
	eb := elf64.NewExec(textBase)
	eb.AddSection(".text", elf64.SHFExecinstr, textBase, code)
	if len(b.externs) > 0 {
		plt := x86.NewAsm(pltBase)
		for range b.externs {
			p := plt.PC()
			plt.I(x86.JMP, x86.MemOp(x86.RIP, x86.RegNone, 1, 0x10000, 8))
			for plt.PC() < p+16 {
				plt.I(x86.NOP)
			}
		}
		pltCode, err := plt.Finish()
		if err != nil {
			b.t.Fatal(err)
		}
		eb.AddSection(".plt", elf64.SHFExecinstr, pltBase, pltCode)
		for i, name := range b.externs {
			eb.AddFunc(name+"@plt", pltBase+uint64(16*i), 16)
		}
	}
	if b.rodata != nil {
		eb.AddSection(".rodata", 0, rodataBase, b.rodata)
	}
	for name, addr := range b.funcSyms {
		eb.AddFunc(name, addr, 0)
	}
	img, err := eb.Bytes()
	if err != nil {
		b.t.Fatal(err)
	}
	im, err := image.Load(img)
	if err != nil {
		b.t.Fatal(err)
	}
	return im
}

func lift(t *testing.T, b *builder, fn string) *FuncResult {
	t.Helper()
	im := b.Image()
	l := New(im, DefaultConfig())
	addr := b.funcSyms[fn]
	return l.LiftFuncCtx(context.Background(), addr, fn)
}

func TestLiftLeafFunction(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
	a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
	a.I(x86.POP, x86.RegOp(x86.RBP, 8))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status %s: %v", r.Status, r.Reasons)
	}
	if !r.Returns {
		t.Fatal("function must be proven to return")
	}
	st := r.Stats()
	if st.Instructions != 6 {
		t.Fatalf("instructions: %d", st.Instructions)
	}
	// One vertex per instruction plus exit/halt.
	if st.States < 6 || st.States > 8 {
		t.Fatalf("states: %d", st.States)
	}
	if !r.Graph.HasEdge(r.Graph.EntryID, hoare.VertexID("401001")) {
		t.Fatalf("missing entry edge; graph:\n%s", hoare.Marshal(r.Graph))
	}
}

func TestLiftBranchAndJoin(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(0, 1))
	a.Jcc(x86.CondE, "zero")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 4))
	a.Jmp("end")
	a.Label("zero")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(2, 4))
	a.Label("end")
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status %s: %v", r.Status, r.Reasons)
	}
	// The merge vertex joined rax=1 and rax=2 into an interval.
	endAddr, _ := b.asm.LabelAddr("end")
	vs := r.Graph.VerticesAt(endAddr)
	if len(vs) != 1 {
		t.Fatalf("merge vertices: %d", len(vs))
	}
	v := vs[0]
	rax := v.State.Pred.Reg(x86.RAX)
	if rax == nil {
		t.Fatal("joined rax clause dropped")
	}
	if rg, ok := v.State.Pred.RangeOf(rax); !ok || rg.Lo != 1 || rg.Hi != 2 {
		t.Fatalf("joined range: %+v %v", rg, ok)
	}
	if v.Joins == 0 {
		t.Fatal("join must have happened")
	}
}

func TestLiftLoopTerminates(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
	a.Label("loop")
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
	a.I(x86.CMP, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
	a.Jcc(x86.CondB, "loop")
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status %s: %v", r.Status, r.Reasons)
	}
	if r.Steps > 200 {
		t.Fatalf("loop exploration did not stabilise quickly: %d steps", r.Steps)
	}
}

func TestLiftInternalCall(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("main")
	a.Call("helper")
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
	a.I(x86.RET)
	h := b.Func("helper")
	h.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(41, 4))
	h.I(x86.RET)
	im := b.Image()
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["main"], "main")
	if r.Status != StatusLifted || !r.Returns {
		t.Fatalf("main: %s %v", r.Status, r.Reasons)
	}
	// The callee was explored exactly once, context-free.
	sums := l.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries: %d", len(sums))
	}
	// Lifting again reuses the cache.
	r2 := l.LiftFuncCtx(context.Background(), b.funcSyms["helper"], "helper")
	if !r2.Returns || r2.Status != StatusLifted {
		t.Fatalf("helper: %s", r2.Status)
	}
	// The call edge names the callee.
	found := false
	for _, e := range r.Graph.Edges {
		if e.Callee == "helper" {
			found = true
		}
	}
	if !found {
		t.Fatal("call edge must name the callee")
	}
}

func TestCalleeNeverReturns(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("main")
	a.Call("dies")
	a.I(x86.UD2) // would be unreachable
	b.Func("dies")
	b.CallExtern("exit")
	b.asm.I(x86.UD2)
	im := b.Image()
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["main"], "main")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	if r.Returns {
		t.Fatal("main cannot be proven to return")
	}
	// The continuation after the call must not have been explored: the
	// ud2 at main+5 is unreachable.
	if _, ok := r.Graph.Instrs[b.funcSyms["main"]+5]; ok {
		t.Fatal("unreachable continuation was explored")
	}
}

func TestConcurrencyRejected(t *testing.T) {
	b := newBuilder(t)
	b.Func("main")
	b.CallExtern("pthread_create")
	b.asm.I(x86.RET)
	r := lift(t, b, "main")
	if r.Status != StatusConcurrency {
		t.Fatalf("status: %s", r.Status)
	}
}

func TestExternalCallCleansAndContinues(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("main")
	a.I(x86.PUSH, x86.RegOp(x86.RBX, 8))
	a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(7, 4))
	b.CallExtern("malloc")
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RBX, 8))
	a.I(x86.POP, x86.RegOp(x86.RBX, 8))
	a.I(x86.RET)
	r := lift(t, b, "main")
	// rbx (callee-saved) survived the call, so the calling-convention
	// check fails: rbx = 7, not rbx0... but rbx was pushed and restored.
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	if !r.Returns {
		t.Fatal("must return")
	}
}

func TestUnprovableReturnOnOverflow(t *testing.T) {
	// A write at an unknown offset from rsp: the relation with the stored
	// return address cannot be established and the function is rejected.
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RDI, 1, -64, 8), x86.ImmOp(0, 4))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusUnprovableRet {
		t.Fatalf("status: %s (%v)", r.Status, r.Reasons)
	}
	if len(r.Reasons) == 0 || !strings.Contains(strings.Join(r.Reasons, " "), "return") {
		t.Fatalf("reasons: %v", r.Reasons)
	}
}

func TestCallingConventionViolation(t *testing.T) {
	// Clobbering rbx without restoring violates the calling convention.
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(1, 4))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusUnprovableRet {
		t.Fatalf("status: %s", r.Status)
	}
	if !strings.Contains(strings.Join(r.Reasons, " "), "calling convention") {
		t.Fatalf("reasons: %v", r.Reasons)
	}
}

func TestNonStandardRSPRestore(t *testing.T) {
	// Section 5.3's /usr/bin/ssh case: rsp restored from memory.
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.RegOp(x86.RSP, 8), x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusUnprovableRet {
		t.Fatalf("status: %s", r.Status)
	}
}

func TestStackProbing(t *testing.T) {
	// Section 5.3's zip case: an internal call followed by sub rsp, rax.
	// rax is havocked by the call, so rsp becomes untrackable.
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(0x1400, 4))
	a.Call("probe")
	a.I(x86.SUB, x86.RegOp(x86.RSP, 8), x86.RegOp(x86.RAX, 8))
	a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, 0, 8), x86.ImmOp(0, 4))
	a.I(x86.ADD, x86.RegOp(x86.RSP, 8), x86.RegOp(x86.RAX, 8))
	a.I(x86.RET)
	p := b.Func("probe")
	p.I(x86.RET)
	im := b.Image()
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["f"], "f")
	if r.Status != StatusUnprovableRet {
		t.Fatalf("stack probing must be rejected: %s %v", r.Status, r.Reasons)
	}
}

func TestJumpTableResolved(t *testing.T) {
	// switch(rdi) with a 4-entry jump table in rodata.
	b := newBuilder(t)
	table := make([]byte, 32)
	b.rodata = table // patched below once labels are known
	a := b.Func("f")
	a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(3, 1))
	a.Jcc(x86.CondA, "default")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RDI, 8, rodataBase, 8))
	a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
	for i := 0; i < 4; i++ {
		a.Label([]string{"c0", "c1", "c2", "c3"}[i])
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.ImmOp(int64(10*i), 4))
		a.Jmp("end")
	}
	a.Label("default")
	a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
	a.Label("end")
	a.I(x86.RET)
	for i, lbl := range []string{"c0", "c1", "c2", "c3"} {
		addr, ok := a.LabelAddr(lbl)
		if !ok {
			t.Fatal("label missing")
		}
		for j := 0; j < 8; j++ {
			table[8*i+j] = byte(addr >> (8 * j))
		}
	}
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	st := r.Stats()
	if st.ResolvedInd != 1 {
		t.Fatalf("resolved indirections: %d", st.ResolvedInd)
	}
	if st.UnresolvedJump != 0 || st.UnresolvedCall != 0 {
		t.Fatalf("annotations: %+v", st)
	}
	// All four cases plus the default were explored.
	for _, lbl := range []string{"c0", "c1", "c2", "c3", "default"} {
		addr, _ := a.LabelAddr(lbl)
		if _, ok := r.Graph.Instrs[addr]; !ok {
			t.Fatalf("case %s at %#x not explored", lbl, addr)
		}
	}
}

func TestCallbackUnresolved(t *testing.T) {
	// A call through a function-pointer parameter: context-free lifting
	// cannot resolve it (column C), but the function still lifts.
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.CALL, x86.RegOp(x86.RDI, 8))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	st := r.Stats()
	if st.UnresolvedCall != 1 {
		t.Fatalf("unresolved calls: %d", st.UnresolvedCall)
	}
	if !r.Returns {
		t.Fatal("the continuation after the unknown call must be explored")
	}
}

func TestTimeoutBudget(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	// A counted loop with a growing value that joins slowly.
	a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
	a.Label("loop")
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
	a.I(x86.CMP, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
	a.Jcc(x86.CondB, "loop")
	a.I(x86.RET)
	im := b.Image()
	cfg := DefaultConfig()
	cfg.MaxStates = 3
	l := New(im, cfg)
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["f"], "f")
	if r.Status != StatusTimeout {
		t.Fatalf("status: %s", r.Status)
	}
}

func TestRecursionAssumed(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(0, 1))
	a.Jcc(x86.CondE, "base")
	a.I(x86.SUB, x86.RegOp(x86.RDI, 8), x86.ImmOp(1, 1))
	a.Call("f")
	a.Label("base")
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	found := false
	for _, as := range r.Graph.Assumptions {
		if strings.Contains(as, "recursive call") {
			found = true
		}
	}
	if !found {
		t.Fatalf("recursion assumption missing: %v", r.Graph.Assumptions)
	}
}

func TestObligationsForStackPointerArgs(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.SUB, x86.RegOp(x86.RSP, 8), x86.ImmOp(0x28, 1))
	a.I(x86.LEA, x86.RegOp(x86.RDI, 8), x86.MemOp(x86.RSP, x86.RegNone, 1, 0, 8))
	b.CallExtern("memset")
	a.I(x86.ADD, x86.RegOp(x86.RSP, 8), x86.ImmOp(0x28, 1))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}
	if len(r.Graph.Obligations) != 1 {
		t.Fatalf("obligations: %v", r.Graph.Obligations)
	}
	if !strings.Contains(r.Graph.Obligations[0], "memset") ||
		!strings.Contains(r.Graph.Obligations[0], "MUST PRESERVE") {
		t.Fatalf("obligation text: %q", r.Graph.Obligations[0])
	}
}

func TestAblationJoinCodePointers(t *testing.T) {
	// With the compatibility extension disabled, the jump-table values
	// join into an abstract interval and the indirect jump cannot be
	// resolved.
	b := newBuilder(t)
	table := make([]byte, 16)
	a := b.Func("f")
	a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(1, 1))
	a.Jcc(x86.CondA, "default")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RDI, 8, rodataBase, 8))
	a.I(x86.NOP) // join point between the two loaded pointers
	a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
	a.Label("c0")
	a.Jmp("end")
	a.Label("c1")
	a.Jmp("end")
	a.Label("default")
	a.Label("end")
	a.I(x86.RET)
	b.rodata = table
	for i, lbl := range []string{"c0", "c1"} {
		addr, _ := a.LabelAddr(lbl)
		for j := 0; j < 8; j++ {
			table[8*i+j] = byte(addr >> (8 * j))
		}
	}
	im := b.Image()

	// Default: resolved.
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["f"], "f")
	if r.Stats().ResolvedInd != 1 || r.Stats().UnresolvedJump != 0 {
		t.Fatalf("default config: %+v (%s)", r.Stats(), r.Status)
	}

	// Ablation: join code pointers → unresolved.
	cfg := DefaultConfig()
	cfg.JoinCodePointers = true
	l2 := New(im, cfg)
	r2 := l2.LiftFuncCtx(context.Background(), b.funcSyms["f"], "f")
	if r2.Stats().UnresolvedJump == 0 {
		t.Fatalf("ablation should lose the indirection: %+v", r2.Stats())
	}
}

// TestSoundnessAgainstEmulator is Definition 4.6 in property form: every
// transition of a concrete run is simulated by an edge of the HG.
func TestSoundnessAgainstEmulator(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	// A function with a branch, a loop, and stack traffic.
	a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
	a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
	a.I(x86.SUB, x86.RegOp(x86.RSP, 8), x86.ImmOp(0x10, 1))
	a.I(x86.MOV, x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8), x86.RegOp(x86.RDI, 8))
	a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
	a.I(x86.XOR, x86.RegOp(x86.RCX, 4), x86.RegOp(x86.RCX, 4))
	a.Label("loop")
	a.I(x86.CMP, x86.RegOp(x86.RCX, 8), x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8))
	a.Jcc(x86.CondAE, "done")
	a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RCX, 8))
	a.I(x86.ADD, x86.RegOp(x86.RCX, 8), x86.ImmOp(1, 1))
	a.Jmp("loop")
	a.Label("done")
	a.I(x86.LEAVE)
	a.I(x86.RET)
	im := b.Image()
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["f"], "f")
	if r.Status != StatusLifted {
		t.Fatalf("status: %s %v", r.Status, r.Reasons)
	}

	// Edge relation on addresses.
	allowed := map[[2]uint64]bool{}
	addrOf := map[hoare.VertexID]uint64{}
	for id, v := range r.Graph.Vertices {
		addrOf[id] = v.Addr
	}
	var retSites []uint64
	for _, e := range r.Graph.Edges {
		if e.To == hoare.ExitID {
			retSites = append(retSites, e.Addr)
			continue
		}
		if e.To == hoare.HaltID {
			continue
		}
		allowed[[2]uint64{e.Addr, addrOf[e.To]}] = true
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		c := emu.New(im)
		c.Reset(b.funcSyms["f"])
		c.Regs[x86.RDI] = uint64(rng.Intn(6))
		trace, err := c.Run(500)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Halted {
			t.Fatal("run did not finish")
		}
		for _, tr := range trace {
			if allowed[[2]uint64{tr.From, tr.To}] {
				continue
			}
			// ret transitions exit the function.
			isRet := false
			for _, rs := range retSites {
				if rs == tr.From {
					isRet = true
				}
			}
			if !isRet {
				t.Fatalf("trial %d: concrete transition %#x→%#x not simulated by the HG",
					trial, tr.From, tr.To)
			}
		}
	}
}

func TestLiftBinaryAggregates(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("start")
	a.Call("work")
	b.CallExtern("exit")
	a.I(x86.UD2)
	w := b.Func("work")
	w.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 4))
	w.I(x86.RET)
	im := b.Image()
	l := New(im, DefaultConfig())
	// Entry is textBase (start).
	res := l.LiftBinaryCtx(context.Background(), "test-bin")
	if res.Status != StatusLifted {
		t.Fatalf("binary status: %s", res.Status)
	}
	if len(res.Funcs) != 2 {
		t.Fatalf("functions: %d", len(res.Funcs))
	}
	if res.Stats.Instructions < 4 {
		t.Fatalf("aggregate instructions: %d", res.Stats.Instructions)
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusLifted, StatusUnprovableRet, StatusConcurrency, StatusTimeout, StatusError, StatusDeadline} {
		if s.String() == "" {
			t.Fatal("empty status name")
		}
	}
}

func TestSummariesSortedAndCached(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("zmain")
	a.Call("aaa")
	a.Call("bbb")
	a.I(x86.RET)
	f1 := b.Func("bbb")
	f1.I(x86.RET)
	f2 := b.Func("aaa")
	f2.I(x86.RET)
	im := b.Image()
	l := New(im, DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), b.funcSyms["zmain"], "zmain")
	if r.Status != StatusLifted {
		t.Fatal(r.Status)
	}
	sums := l.Summaries()
	if len(sums) != 3 {
		t.Fatalf("summaries: %d", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].Addr < sums[i-1].Addr {
			t.Fatal("summaries must be address-ordered")
		}
	}
	// Cached: a second lift returns the same pointer.
	if l.LiftFuncCtx(context.Background(), b.funcSyms["aaa"], "aaa") != l.LiftFuncCtx(context.Background(), b.funcSyms["aaa"], "aaa") {
		t.Fatal("summary caching broken")
	}
}

func TestExploitCandidatesEmptyForBenign(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
	a.I(x86.RET)
	r := lift(t, b, "f")
	if got := ExploitCandidates(r); len(got) != 0 {
		t.Fatalf("benign function must yield no candidates: %+v", got)
	}
	// Nil graph tolerated.
	if got := ExploitCandidates(&FuncResult{}); got != nil {
		t.Fatal("nil graph")
	}
}

// TestLiftStopsAtUndecodableInstruction: bytes the decoder rejects (here
// mov al, ah, whose high-byte register the model does not name) fail the
// lift with a fetch-error annotation, never an edge out of them.
func TestLiftStopsAtUndecodableInstruction(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
	bad := a.PC()
	a.Raw(0x88, 0xe0)
	a.I(x86.RET)
	r := lift(t, b, "f")
	if r.Status != StatusError {
		t.Fatalf("status %s, want %s", r.Status, StatusError)
	}
	annotated := false
	for _, an := range r.Graph.Annotations {
		annotated = annotated || an.Addr == bad && an.Kind == hoare.AnnFetchError
	}
	if !annotated {
		t.Fatalf("no fetch-error annotation at %#x: %v", bad, r.Graph.Annotations)
	}
	if inst, ok := r.Graph.Instrs[bad]; ok {
		t.Fatalf("undecodable bytes lifted as %s", inst.String())
	}
}
