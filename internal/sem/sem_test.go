package sem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elf64"
	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/pred"
	"repro/internal/x86"
)

const (
	textBase   = 0x401000
	rodataBase = 0x4a0000
)

// buildImage assembles code at textBase with optional rodata.
func buildImage(t *testing.T, build func(a *x86.Asm), rodata []byte) *image.Image {
	t.Helper()
	a := x86.NewAsm(textBase)
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b := elf64.NewExec(textBase)
	b.AddSection(".text", elf64.SHFExecinstr, textBase, code)
	if rodata != nil {
		b.AddSection(".rodata", 0, rodataBase, rodata)
	}
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// run steps through straight-line code from the entry, following single
// fall-through outcomes, and returns the final single state.
func run(t *testing.T, m *Machine, st *State, addr uint64, n int) *State {
	t.Helper()
	for i := 0; i < n; i++ {
		inst, err := m.Img.Fetch(addr)
		if err != nil {
			t.Fatalf("fetch at %#x: %v", addr, err)
		}
		outs, err := m.Step(st, inst)
		if err != nil {
			t.Fatalf("step %s: %v", inst.String(), err)
		}
		if len(outs) != 1 {
			t.Fatalf("%s: expected single outcome, got %d", inst.String(), len(outs))
		}
		st = outs[0].State
		tgt, ok := outs[0].Resolved()
		if !ok {
			t.Fatalf("%s: unresolved", inst.String())
		}
		addr = tgt
	}
	return st
}

func newMachine(t *testing.T, build func(a *x86.Asm), rodata []byte) *Machine {
	return NewMachine(buildImage(t, build, rodata), DefaultConfig())
}

func TestMovAddTracking(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 4))
		a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(3, 1))
		a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RDI, 8))
		a.I(x86.RET)
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 3)
	want := expr.Add(expr.V("rdi0"), expr.Word(8))
	if got := st.Pred.Reg(x86.RAX); !got.Equal(want) {
		t.Fatalf("rax = %v, want %v", got, want)
	}
}

func TestSubRegisterWrites(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(0x1122334455667788, 8))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 1), x86.ImmOp(0x99, 1)) // al
		a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(-1, 4))   // sign-extended
		a.I(x86.MOV, x86.RegOp(x86.RBX, 4), x86.ImmOp(7, 4))    // 32-bit zero-extends
	}, nil)
	st := run(t, m, NewState(), textBase, 4)
	if got := st.Pred.Reg(x86.RAX); !got.IsWord(0x1122334455667799) {
		t.Fatalf("al merge: %v", got)
	}
	if got := st.Pred.Reg(x86.RBX); !got.IsWord(7) {
		t.Fatalf("32-bit zero extension: %v", got)
	}
}

func TestPushPop(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
		a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
		a.I(x86.POP, x86.RegOp(x86.RBP, 8))
	}, nil)
	st := InitialState("a_r")
	mid := run(t, m, st, textBase, 2)
	// rsp = rsp0 - 8, [rsp0-8] = rbp0, rbp = rsp0 - 8.
	wantRSP := expr.Sub(expr.V("rsp0"), expr.Word(8))
	if got := mid.Pred.Reg(x86.RSP); !got.Equal(wantRSP) {
		t.Fatalf("rsp = %v", got)
	}
	if v, ok := mid.Pred.ReadMem(wantRSP, 8); !ok || !v.Equal(expr.V("rbp0")) {
		t.Fatalf("saved rbp: %v %v", v, ok)
	}
	end := run(t, m, mid, textBase+4, 1)
	if got := end.Pred.Reg(x86.RBP); !got.Equal(expr.V("rbp0")) {
		t.Fatalf("restored rbp: %v", got)
	}
	if got := end.Pred.Reg(x86.RSP); !got.Equal(expr.V("rsp0")) {
		t.Fatalf("restored rsp: %v", got)
	}
}

func TestFullFunctionReturn(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
		a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
		a.I(x86.SUB, x86.RegOp(x86.RSP, 8), x86.ImmOp(0x20, 4))
		a.I(x86.MOV, x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8), x86.RegOp(x86.RDI, 8))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8))
		a.I(x86.LEAVE)
		a.I(x86.RET)
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 6)
	inst, _ := m.Img.Fetch(textBase + 4 + 4 + 4 + 4 + 4 + 1) // after the first 6
	// Fetch the ret directly: find it by stepping from the state.
	_ = inst
	ret, err := m.Img.Fetch(stRIP(t, m, st))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.Step(st, ret)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Kind != KRet {
		t.Fatalf("outcomes: %+v", outs)
	}
	chk := CheckReturn(outs[0], "a_r")
	if !chk.OK {
		t.Fatalf("return check failed: %v", chk.Reasons)
	}
	// rax holds the argument round-tripped through the stack.
	if got := outs[0].State.Pred.Reg(x86.RAX); !got.Equal(expr.V("rdi0")) {
		t.Fatalf("rax = %v", got)
	}
}

// stRIP finds the instruction following the executed prefix; test helper
// that re-runs the function to the last state, tracking the address.
func stRIP(t *testing.T, m *Machine, st *State) uint64 {
	t.Helper()
	// The straight-line helpers above end right before ret; compute it by
	// scanning forward from textBase.
	addr := uint64(textBase)
	for {
		inst, err := m.Img.Fetch(addr)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Mn == x86.RET {
			return addr
		}
		addr = inst.Next()
	}
}

func TestBranchForkAndRefinement(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RAX, 4), x86.ImmOp(0xc3, 4))
		a.Jcc(x86.CondA, "high")
		a.I(x86.NOP)
		a.Label("high")
		a.I(x86.RET)
	}, nil)
	st := InitialState("a_r")
	cmp, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, cmp)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := m.Img.Fetch(cmp.Next())
	outs, err = m.Step(outs[0].State, ja)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("ja must fork: %d", len(outs))
	}
	eax := expr.ZExt(expr.V("rax0"), 4)
	for _, o := range outs {
		r, ok := o.State.Pred.RangeOf(eax)
		if o.Kind == KFall {
			if !ok || r.Hi != 0xc3 || r.Lo != 0 {
				t.Fatalf("fall-through range: %+v %v", r, ok)
			}
		} else {
			if !ok || r.Lo != 0xc4 {
				t.Fatalf("taken range: %+v %v", r, ok)
			}
		}
	}
}

func TestJumpTableEnumeration(t *testing.T) {
	// rodata: 4 dword entries with 3 distinct values.
	table := make([]byte, 16)
	vals := []uint32{0x401100, 0x401200, 0x401100, 0x401300}
	for i, v := range vals {
		le := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
		copy(table[i*4:], le)
	}
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.MemOp(x86.RegNone, x86.RAX, 4, rodataBase, 4))
		a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
	}, table)
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RAX, expr.V("i"))
	st.Pred.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 3})
	ld, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, ld)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("expected 3 distinct table values, got %d", len(outs))
	}
	seen := map[uint64]bool{}
	for _, o := range outs {
		jmp, _ := m.Img.Fetch(textBase + 7)
		jouts, err := m.Step(o.State, jmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(jouts) != 1 || jouts[0].Kind != KJump {
			t.Fatalf("jmp outcomes: %+v", jouts)
		}
		tgt, ok := jouts[0].Resolved()
		if !ok {
			t.Fatal("table jump must resolve")
		}
		seen[tgt] = true
	}
	if !seen[0x401100] || !seen[0x401200] || !seen[0x401300] {
		t.Fatalf("targets: %v", seen)
	}
}

// TestWeirdAliasFork reproduces the core of Section 2: two stores through
// possibly-aliasing pointers make a subsequent load fork into both the
// overwritten and the preserved value.
func TestWeirdAliasFork(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.RegOp(x86.RAX, 8))
		a.I(x86.MOV, x86.MemOp(x86.RSI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8))
	}, nil)
	st := InitialState("a_r")
	s1, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("first store: %d outcomes", len(outs))
	}
	s2, _ := m.Img.Fetch(textBase + uint64(s1.Len))
	outs, err = m.Step(outs[0].State, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("second store must fork on aliasing: %d", len(outs))
	}
	var got []string
	for _, o := range outs {
		s3, _ := m.Img.Fetch(textBase + uint64(s1.Len) + uint64(s2.Len))
		louts, err := m.Step(o.State, s3)
		if err != nil {
			t.Fatal(err)
		}
		for _, lo := range louts {
			got = append(got, lo.State.Pred.Reg(x86.RCX).String())
		}
	}
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "0x1") {
		t.Fatalf("aliasing branch must read the overwriting store: %v", got)
	}
	if !strings.Contains(joined, "rax0") {
		t.Fatalf("separate branch must preserve the first store: %v", got)
	}
}

func TestCleanAfterCall(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) { a.I(x86.RET) }, nil)
	st := InitialState("a_r")
	// A stack clause, a heap clause, callee- and caller-saved registers.
	stack := expr.Sub(expr.V("rsp0"), expr.Word(16))
	heap := expr.V("rdi0")
	msts := m.writeMem(st, stack, 8, expr.Word(42))
	st = msts[0]
	msts = m.writeMem(st, heap, 8, expr.Word(7))
	st = msts[0]
	st.Pred.SetReg(x86.RBX, expr.V("rbx0"))
	st.Pred.SetReg(x86.RCX, expr.Word(9))

	clean := m.CleanAfterCall(st, 0x401000)
	if v, ok := clean.Pred.ReadMem(stack, 8); !ok || !v.IsWord(42) {
		t.Fatalf("stack clause must survive: %v %v", v, ok)
	}
	if _, ok := clean.Pred.ReadMem(heap, 8); ok {
		t.Fatal("heap clause must be destroyed")
	}
	if got := clean.Pred.Reg(x86.RBX); !got.Equal(expr.V("rbx0")) {
		t.Fatalf("callee-saved clobbered: %v", got)
	}
	if got := clean.Pred.Reg(x86.RCX); got.IsWord(9) {
		t.Fatal("caller-saved must be havocked")
	}
	// The memory model keeps only stack trees.
	for _, r := range clean.Mem.AllRegions(nil) {
		if !stackBased(r.Addr) {
			t.Fatalf("non-stack region survived: %v", r.Addr)
		}
	}
	// The original state is untouched.
	if _, ok := st.Pred.ReadMem(heap, 8); !ok {
		t.Fatal("input state mutated")
	}
}

func TestCallObligations(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) { a.I(x86.RET) }, nil)
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RDI, expr.Sub(expr.V("rsp0"), expr.Word(40)))
	obs := m.CallObligations(st, "memset", 0x400701)
	if len(obs) != 1 {
		t.Fatalf("obligations: %v", obs)
	}
	want := "@400701 : memset(rdi := rsp0 - 0x28) MUST PRESERVE [rsp0 - 8 TO rsp0 + 8]"
	if obs[0] != want {
		t.Fatalf("obligation text:\n got %q\nwant %q", obs[0], want)
	}
	// Non-stack pointer arguments generate no obligation.
	st.Pred.SetReg(x86.RDI, expr.V("rdi0"))
	if obs := m.CallObligations(st, "memset", 0x400701); len(obs) != 0 {
		t.Fatalf("unexpected obligations: %v", obs)
	}
}

func TestLeaAndShifts(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.LEA, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RDI, x86.RSI, 4, 8, 8))
		a.I(x86.SHL, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
		a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(0x10, 4))
		a.I(x86.SHR, x86.RegOp(x86.RBX, 8), x86.ImmOp(4, 1))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 4)
	want := expr.Mul(expr.Word(2), expr.Add(expr.V("rdi0"), expr.Mul(expr.Word(4), expr.V("rsi0")), expr.Word(8)))
	if got := st.Pred.Reg(x86.RAX); !got.Equal(want) {
		t.Fatalf("lea/shl: %v want %v", got, want)
	}
	if got := st.Pred.Reg(x86.RBX); !got.IsWord(1) {
		t.Fatalf("shr: %v", got)
	}
}

func TestDivWithCqo(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(-100, 4))
		a.I(x86.CQO)
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(7, 4))
		a.I(x86.IDIV, x86.RegOp(x86.RCX, 8))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 4)
	if got := st.Pred.Reg(x86.RAX); !got.IsWord(^uint64(13)) { // -14
		t.Fatalf("idiv quotient: %v", got)
	}
	if got := st.Pred.Reg(x86.RDX); !got.IsWord(^uint64(1)) { // -2
		t.Fatalf("idiv remainder: %v", got)
	}
}

func TestXorZeroIdiom(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 1)
	if got := st.Pred.Reg(x86.RAX); !got.IsWord(0) {
		t.Fatalf("xor-zero: %v", got)
	}
}

func TestCmovForkAndSetcc(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(5, 1))
		a.Icc(x86.CMOVCC, x86.CondE, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RSI, 8))
	}, nil)
	st := InitialState("a_r")
	c, _ := m.Img.Fetch(textBase)
	outs, _ := m.Step(st, c)
	cm, _ := m.Img.Fetch(c.Next())
	outs, err := m.Step(outs[0].State, cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("undecided cmov must fork: %d", len(outs))
	}
	// Decided setcc.
	m2 := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.RegOp(x86.RDI, 8))
		a.Icc(x86.SETCC, x86.CondE, x86.RegOp(x86.RAX, 1))
	}, nil)
	st2 := InitialState("a_r")
	c2, _ := m2.Img.Fetch(textBase)
	o2, _ := m2.Step(st2, c2)
	s2, _ := m2.Img.Fetch(c2.Next())
	o2, err = m2.Step(o2[0].State, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(o2) != 1 {
		t.Fatalf("sete after cmp x,x: %d outcomes", len(o2))
	}
	if got := expr.ZExt(o2[0].State.Pred.Reg(x86.RAX), 1); !got.IsWord(1) {
		t.Fatalf("sete: %v", got)
	}
}

func TestAssumptionsRecorded(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
	}, nil)
	inst, _ := m.Img.Fetch(textBase)
	own := map[string]bool{}
	if prev := m.TrackAssumptions(own); prev != nil {
		t.Fatalf("a new machine tracks into %v", prev)
	}
	// The memory model already has [rsp0, 8].
	outs, err := m.Step(InitialState("a_r"), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("assumed-separate write must not fork: %d", len(outs))
	}
	var made string
	for a := range own {
		made = a
	}
	if len(own) != 1 || !strings.Contains(made, "ASSUMED SEPARATE") || !strings.Contains(made, "rdi0") {
		t.Fatalf("assumption not recorded: %v", own)
	}
	// Stepping the write again makes the assumption again: the next
	// exploration's set receives it although the last one holds it, and
	// no set receives it while none is installed.
	again := map[string]bool{}
	if prev := m.TrackAssumptions(again); len(prev) != 1 || !prev[made] {
		t.Fatalf("tracked into %v, want the set holding %q", prev, made)
	}
	if _, err := m.Step(InitialState("a_r"), inst); err != nil {
		t.Fatal(err)
	}
	m.TrackAssumptions(nil)
	if _, err := m.Step(InitialState("a_r"), inst); err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || !again[made] || len(own) != 1 {
		t.Fatalf("tracked %v then %v, want %q once in each", own, again, made)
	}
}

// TestCheckMachineAssumesOnlyItsList steps the write of
// TestAssumptionsRecorded on check machines. Listing the assumption Step 1
// recorded reproduces Step 1's single outcome; an empty list, or one that
// lists the pair at another address, assumes nothing, so the write no
// longer has one outcome. A check machine records nothing.
func TestCheckMachineAssumesOnlyItsList(t *testing.T) {
	asm := func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
	}
	step1 := newMachine(t, asm, nil)
	inst, _ := step1.Img.Fetch(textBase)
	made := map[string]bool{}
	step1.TrackAssumptions(made)
	if _, err := step1.Step(InitialState("a_r"), inst); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for a := range made {
		listed = append(listed, a)
	}
	if len(listed) != 1 {
		t.Fatalf("Step 1 recorded %v, want one assumption", listed)
	}
	moved := []string{strings.Replace(listed[0], fmt.Sprintf("@%x ", textBase), fmt.Sprintf("@%x ", textBase+1), 1)}
	for _, c := range []struct {
		name  string
		hyps  []string
		outs1 bool
	}{
		{"listed", listed, true},
		{"empty", nil, false},
		{"other address", moved, false},
	} {
		m := NewCheckMachine(step1.Img, DefaultConfig(), c.hyps)
		recorded := map[string]bool{}
		m.TrackAssumptions(recorded)
		outs, err := m.Step(InitialState("a_r"), inst)
		if err != nil {
			t.Fatal(err)
		}
		if (len(outs) == 1) != c.outs1 {
			t.Errorf("%s: %d outcomes", c.name, len(outs))
		}
		if len(recorded) != 0 {
			t.Errorf("%s: check machine recorded %v", c.name, recorded)
		}
	}
}

func TestUnknownStackOffsetWriteForksOrDestroys(t *testing.T) {
	// Write to rsp0 + unknown offset: the relation to [rsp0, 8] (return
	// address) is genuinely unknown — never assumed separate. After the
	// write, the return-address clause must be gone in at least one
	// produced state (the paper rejects such functions).
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RAX, 1, 0, 8), x86.ImmOp(0, 4))
	}, nil)
	st := InitialState("a_r")
	inst, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	clobbered := false
	for _, o := range outs {
		v, ok := o.State.Pred.ReadMem(expr.V("rsp0"), 8)
		if !ok || !v.Equal(expr.V("a_r")) {
			clobbered = true
		}
	}
	if !clobbered {
		t.Fatalf("unknown stack write must clobber the return address in some model (%d outcomes)", len(outs))
	}
}
