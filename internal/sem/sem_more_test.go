package sem

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/x86"
)

func TestJumpTableBoundRespected(t *testing.T) {
	// A table larger than MaxTableEntries is not enumerated: the read
	// produces a symbolic value instead.
	table := make([]byte, 8*64)
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RAX, 8, rodataBase, 8))
	}, table)
	m.Cfg.MaxTableEntries = 16
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RAX, expr.V("i"))
	st.Pred.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 63})
	inst, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("oversized table must not fork: %d", len(outs))
	}
	if _, ok := outs[0].State.Pred.Reg(x86.RAX).AsWord(); ok {
		t.Fatal("oversized table read must stay symbolic")
	}
}

func TestTableReadOutsideRodata(t *testing.T) {
	// Reads indexed into writable .data are never enumerated.
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RegNone, x86.RAX, 8, 0x4b0000, 8))
	}, nil)
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RAX, expr.V("i"))
	st.Pred.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 3})
	inst, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if _, ok := o.State.Pred.Reg(x86.RAX).AsWord(); ok {
			t.Fatal("unmapped/writable table read must stay symbolic")
		}
	}
}

func TestMultipleObligations(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) { a.I(x86.RET) }, nil)
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RDI, expr.Sub(expr.V("rsp0"), expr.Word(0x20)))
	st.Pred.SetReg(x86.RSI, expr.Sub(expr.V("rsp0"), expr.Word(0x40)))
	st.Pred.SetReg(x86.RDX, expr.Word(48))
	obs := m.CallObligations(st, "memcpy", 0x400900)
	if len(obs) != 2 {
		t.Fatalf("obligations: %v", obs)
	}
	for _, o := range obs {
		if !strings.Contains(o, "memcpy") || !strings.Contains(o, "MUST PRESERVE") {
			t.Fatalf("obligation text: %q", o)
		}
	}
}

func TestDeterministicFreshNames(t *testing.T) {
	// Re-running the same instruction on the same state produces identical
	// fresh names — the property the Step-2 checker relies on.
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8))
	}, nil)
	st := InitialState("a_r")
	inst, _ := m.Img.Fetch(textBase)
	o1, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(o1) != len(o2) {
		t.Fatalf("outcome counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i].State.Key() != o2[i].State.Key() {
			t.Fatalf("outcome %d keys differ:\n%s\nvs\n%s", i, o1[i].State.Key(), o2[i].State.Key())
		}
	}
}

func TestStepDoesNotMutateInput(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.ADD, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 1))
	}, nil)
	st := InitialState("a_r")
	key := st.Key()
	inst, _ := m.Img.Fetch(textBase)
	if _, err := m.Step(st, inst); err != nil {
		t.Fatal(err)
	}
	if st.Key() != key {
		t.Fatal("Step mutated its input state")
	}
}

func TestEnclosedReadSlicesValue(t *testing.T) {
	// Store 8 bytes, read 4 at offset 4: the value is the sliced bytes.
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8), x86.ImmOp(0x11223344, 4))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.MemOp(x86.RBP, x86.RegNone, 1, -4, 4))
	}, nil)
	st := InitialState("a_r")
	st.Pred.SetReg(x86.RBP, expr.Sub(expr.V("rsp0"), expr.Word(0x10)))
	s2 := run(t, m, st, textBase, 2)
	// The qword value 0x11223344 has zero upper bytes; the dword read at
	// +4 must therefore be 0.
	if got := s2.Pred.Reg(x86.RAX); !got.IsWord(0) {
		t.Fatalf("sliced read: %v", got)
	}
}

func TestSyscallClobbers(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.SYSCALL)
	}, nil)
	st := InitialState("a_r")
	s2 := run(t, m, st, textBase, 1)
	for _, r := range []x86.Reg{x86.RAX, x86.RCX, x86.R11} {
		v := s2.Pred.Reg(r)
		if v != nil {
			if _, isWord := v.AsWord(); isWord {
				t.Fatalf("%s must be havocked", r)
			}
			if v.Equal(expr.V(expr.Var(r.String() + "0"))) {
				t.Fatalf("%s must not keep its initial value", r)
			}
		}
	}
	// Callee-saved registers survive.
	if got := s2.Pred.Reg(x86.RBX); !got.Equal(expr.V("rbx0")) {
		t.Fatalf("rbx: %v", got)
	}
}

func TestRepStosBounded(t *testing.T) {
	// rep stosq with a constant count inside the frame: the return-address
	// clause survives; the filled slots' clauses are invalidated.
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -0x20, 8), x86.ImmOp(7, 4))
		a.I(x86.LEA, x86.RegOp(x86.RDI, 8), x86.MemOp(x86.RSP, x86.RegNone, 1, -0x40, 8))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(2, 4))
		a.I(x86.XOR, x86.RegOp(x86.RAX, 4), x86.RegOp(x86.RAX, 4))
		a.Raw(0xf3, 0x48, 0xab) // rep stosq: fills [rsp0-0x40, rsp0-0x30)
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 5)
	if v, ok := st.Pred.ReadMem(expr.V("rsp0"), 8); !ok || !v.Equal(expr.V("a_r")) {
		t.Fatalf("return address clause lost: %v %v", v, ok)
	}
	if v, ok := st.Pred.ReadMem(expr.Sub(expr.V("rsp0"), expr.Word(0x20)), 8); !ok || !v.IsWord(7) {
		t.Fatalf("out-of-extent clause must survive: %v %v", v, ok)
	}
	if got := st.Pred.Reg(x86.RCX); !got.IsWord(0) {
		t.Fatalf("rcx after rep: %v", got)
	}
	want := expr.Sub(expr.V("rsp0"), expr.Word(0x30))
	if got := st.Pred.Reg(x86.RDI); !got.Equal(want) {
		t.Fatalf("rdi after rep: %v want %v", got, want)
	}
}

func TestRepStosUnboundedKillsFrame(t *testing.T) {
	// rep stos with an unknown count through a frame pointer: every memory
	// clause may be hit, including the return address — the function would
	// be rejected at ret, like the paper's memset-through-frame case when
	// inlined.
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.LEA, x86.RegOp(x86.RDI, 8), x86.MemOp(x86.RSP, x86.RegNone, 1, -0x40, 8))
		a.Raw(0xf3, 0x48, 0xab)
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 2)
	if st.Pred.NumMem() != 0 {
		t.Fatalf("unbounded block write must clear all memory clauses, %d left", st.Pred.NumMem())
	}
}

// TestQuickSpliceMatchesConcrete: the byte-splice used for enclosed writes
// agrees with concrete little-endian memory semantics.
func TestQuickSpliceMatchesConcrete(t *testing.T) {
	f := func(old, val uint64, off8, size8 uint8) bool {
		size := []int{1, 2, 4}[size8%3]
		off := int64(off8) % int64(8-size)
		got := splice(expr.Word(old), expr.Word(val), off, size, 8)
		w, ok := got.AsWord()
		if !ok {
			return false
		}
		mask := uint64(1)<<(uint(size)*8) - 1
		want := old&^(mask<<(uint(off)*8)) | (val&mask)<<(uint(off)*8)
		return w == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdcSbbWithKnownCarry(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.RegOp(x86.RDI, 8)) // CF = 0
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(10, 4))
		a.I(x86.ADC, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 1)) // flags cleared after
		a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(10, 4))
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.RegOp(x86.RDI, 8)) // CF = 0 again
		a.I(x86.SBB, x86.RegOp(x86.RBX, 8), x86.ImmOp(5, 1))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 6)
	if got := st.Pred.Reg(x86.RAX); !got.IsWord(15) {
		t.Fatalf("adc with CF=0: %v", got)
	}
	if got := st.Pred.Reg(x86.RBX); !got.IsWord(5) {
		t.Fatalf("sbb with CF=0: %v", got)
	}
}

func TestRetWithImmediate(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.RET, x86.ImmOp(0x10, 2))
	}, nil)
	st := InitialState("a_r")
	inst, _ := m.Img.Fetch(textBase)
	outs, err := m.Step(st, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Kind != KRet {
		t.Fatalf("outcomes: %+v", outs)
	}
	want := expr.Add(expr.V("rsp0"), expr.Word(0x18))
	if got := outs[0].State.Pred.Reg(x86.RSP); !got.Equal(want) {
		t.Fatalf("ret imm16 rsp: %v want %v", got, want)
	}
}

func TestPushMemAndMovzxMem(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -8, 8), x86.ImmOp(0x1ff, 4))
		a.I(x86.PUSH, x86.MemOp(x86.RSP, x86.RegNone, 1, -8, 8))
		a.I(x86.MOVZX, x86.RegOp(x86.RBX, 4), x86.MemOp(x86.RSP, x86.RegNone, 1, 0, 1))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 3)
	if v, ok := st.Pred.ReadMem(expr.Sub(expr.V("rsp0"), expr.Word(8)), 8); !ok || !v.IsWord(0x1ff) {
		t.Fatalf("pushed value: %v %v", v, ok)
	}
	if got := st.Pred.Reg(x86.RBX); !got.IsWord(0xff) {
		t.Fatalf("movzx low byte: %v", got)
	}
}

func TestCmovTakenAndRolSymbolic(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.RegOp(x86.RDI, 8)) // ZF = 1
		a.Icc(x86.CMOVCC, x86.CondE, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RSI, 8))
		a.I(x86.ROL, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RCX, 1)) // symbolic count
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 3)
	if got := st.Pred.Reg(x86.RAX); got == nil {
		t.Fatal("rol result must stay named")
	} else if _, isW := got.AsWord(); isW {
		t.Fatal("symbolic rotate cannot be concrete")
	}
}

func TestXchgMem(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -8, 8), x86.ImmOp(3, 4))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(4, 4))
		a.I(x86.XCHG, x86.MemOp(x86.RSP, x86.RegNone, 1, -8, 8), x86.RegOp(x86.RAX, 8))
	}, nil)
	st := run(t, m, InitialState("a_r"), textBase, 3)
	if got := st.Pred.Reg(x86.RAX); !got.IsWord(3) {
		t.Fatalf("xchg reg: %v", got)
	}
	if v, ok := st.Pred.ReadMem(expr.Sub(expr.V("rsp0"), expr.Word(8)), 8); !ok || !v.IsWord(4) {
		t.Fatalf("xchg mem: %v %v", v, ok)
	}
}

// TestAccumulatorSignExtension steps cbw/cwde/cdqe and cwd/cdq/cqo in
// every prefix spelling from concrete registers and checks the hardware
// results: the width comes from the operand size, never from the first
// byte.
func TestAccumulatorSignExtension(t *testing.T) {
	const rax, rdx = 0x1111111180008080, 0x2222222222222222
	for _, c := range []struct {
		bytes            []byte
		wantRAX, wantRDX uint64
	}{
		{[]byte{0x66, 0x98}, 0x111111118000ff80, rdx},       // cbw
		{[]byte{0x98}, 0xffff8080, rdx},                     // cwde
		{[]byte{0x48, 0x98}, 0xffffffff80008080, rdx},       // cdqe
		{[]byte{0x49, 0x98}, 0xffffffff80008080, rdx},       // cdqe, REX.WB
		{[]byte{0x4c, 0x98}, 0xffffffff80008080, rdx},       // cdqe, REX.WR
		{[]byte{0x2e, 0x48, 0x98}, 0xffffffff80008080, rdx}, // cdqe after a segment prefix
		{[]byte{0x66, 0x48, 0x98}, 0xffffffff80008080, rdx}, // cdqe: REX.W overrides 66
		{[]byte{0x66, 0x99}, rax, 0x222222222222ffff},       // cwd
		{[]byte{0x99}, rax, 0xffffffff},                     // cdq
		{[]byte{0x48, 0x99}, rax, 0},                        // cqo
		{[]byte{0x49, 0x99}, rax, 0},                        // cqo, REX.WB
	} {
		m := newMachine(t, func(a *x86.Asm) { a.Raw(c.bytes...) }, nil)
		st := NewState()
		st.Pred.SetReg(x86.RAX, expr.Word(rax))
		st.Pred.SetReg(x86.RDX, expr.Word(rdx))
		st = run(t, m, st, textBase, 1)
		if !st.Pred.Reg(x86.RAX).IsWord(c.wantRAX) || !st.Pred.Reg(x86.RDX).IsWord(c.wantRDX) {
			t.Errorf("% x: rax=%v rdx=%v, want rax=%#x rdx=%#x",
				c.bytes, st.Pred.Reg(x86.RAX), st.Pred.Reg(x86.RDX), c.wantRAX, c.wantRDX)
		}
	}
}
