package sem

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/x86"
)

// TestOutcomesOwnTheirStates pins the ownership rule of Machine.Step that
// the explorer's in-place join relies on: every outcome of a step holds a
// State and a pred.Pred of its own, shared with no other outcome and not
// with the input, however the step forks. CleanAfterCall returns a state
// of its own too. It holds on a fresh machine and on one with recycled
// states on hand, whose clones take them.
func TestOutcomesOwnTheirStates(t *testing.T) {
	t.Run("fresh", func(t *testing.T) { checkOutcomesOwned(t, 0) })
	t.Run("recycled", func(t *testing.T) { checkOutcomesOwned(t, 64) })
}

// checkOutcomesOwned runs the ownership checks on a machine that starts
// with the given number of recycled states, and requires the clones to
// have taken some of them when there are any.
func checkOutcomesOwned(t *testing.T, recycled int) {
	table := make([]byte, 16) // four dword slots holding three values
	for i, v := range []uint32{0x401100, 0x401200, 0x401100, 0x401300} {
		table[i*4], table[i*4+1], table[i*4+2], table[i*4+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	m := newMachine(t, func(a *x86.Asm) {
		a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(5, 1))
		a.Jcc(x86.CondE, "end")
		a.Icc(x86.CMOVCC, x86.CondE, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RSI, 8))
		a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.MemOp(x86.RegNone, x86.RAX, 4, rodataBase, 4))
		a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.RegOp(x86.RAX, 8))
		a.I(x86.MOV, x86.MemOp(x86.RSI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.MemOp(x86.RSI, x86.RegNone, 1, 0, 8))
		a.I(x86.NOP)
		a.Jmp("end")
		a.Label("end")
		a.I(x86.RET)
	}, table)
	handed := map[*State]bool{}
	for i := 0; i < recycled; i++ {
		st := InitialState("a_r").Clone()
		st.Pred.SetReg(x86.RBX, expr.Word(uint64(i)))
		handed[st] = true
		m.Recycle(st)
	}
	var insts []x86.Inst
	for addr := uint64(textBase); len(insts) < 9; {
		inst, err := m.Img.Fetch(addr)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
		addr = inst.Next()
	}
	cmp, jcc, cmov, table4, store, store2, load, nop, jmp := insts[0], insts[1], insts[2], insts[3], insts[4], insts[5], insts[6], insts[7], insts[8]

	step := func(st *State, inst x86.Inst) []Outcome {
		t.Helper()
		outs, err := m.Step(st, inst)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	reused := 0
	owned := func(name string, in *State, outs []*State, min int) {
		t.Helper()
		if len(outs) < min {
			t.Fatalf("%s: %d outcomes, want at least %d", name, len(outs), min)
		}
		for i, s := range outs {
			if handed[s] {
				reused++
				if s.Pred.Reg(x86.RBX) != in.Pred.Reg(x86.RBX) {
					t.Errorf("%s: outcome %d shows its recycled state's old rbx", name, i)
				}
			}
			if s == in || s.Pred == in.Pred {
				t.Errorf("%s: outcome %d shares the input's state or predicate", name, i)
			}
			for j, u := range outs[:i] {
				if s == u || s.Pred == u.Pred {
					t.Errorf("%s: outcomes %d and %d share a state or predicate", name, j, i)
				}
			}
		}
	}
	states := func(outs []Outcome) []*State {
		out := make([]*State, len(outs))
		for i, o := range outs {
			out[i] = o.State
		}
		return out
	}

	afterCmp := step(InitialState("a_r"), cmp)[0].State
	owned("undecided jcc", afterCmp, states(step(afterCmp, jcc)), 2)
	owned("undecided cmovcc", afterCmp, states(step(afterCmp, cmov)), 2)

	indexed := InitialState("a_r")
	indexed.Pred.SetReg(x86.RAX, expr.V("i"))
	indexed.Pred.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 3})
	owned("jump-table read", indexed, states(step(indexed, table4)), 3)

	// [rdi0, 8] in the model: a same-size store or load through rsi
	// cannot be decided against it and forks the model.
	stored := step(InitialState("a_r"), store)
	if len(stored) != 1 {
		t.Fatalf("first store: %d outcomes", len(stored))
	}
	st := stored[0].State
	owned("forking store", st, states(step(st, store2)), 2)
	owned("forking load", st, states(step(st, load)), 2)

	owned("nop", st, states(step(st, nop)), 1)
	owned("direct jmp", st, states(step(st, jmp)), 1)
	owned("CleanAfterCall", st, []*State{m.CleanAfterCall(st, jmp.Addr)}, 1)
	if recycled > 0 && reused == 0 {
		t.Fatal("no outcome was built in a recycled state")
	}
}

// TestRecycledStateIsReused: a state handed back to the machine is the
// object its next clone returns, predicate included, and none of its old
// clauses, intervals or memory model shows through.
func TestRecycledStateIsReused(t *testing.T) {
	m := newMachine(t, func(a *x86.Asm) { a.I(x86.NOP) }, nil)
	nop, err := m.Img.Fetch(textBase)
	if err != nil {
		t.Fatal(err)
	}
	old := InitialState("S_old").Clone()
	old.Pred.SetReg(x86.RAX, expr.Word(7))
	old.Pred.WriteMem(expr.V("old_p"), 8, expr.Word(9))
	old.Pred.AddRange(expr.V("old_i"), pred.Range{Lo: 1, Hi: 2})
	old.Pred.SetCmp(&pred.Cmp{Kind: pred.CmpSub, Lhs: expr.V("old_a"), Rhs: expr.Word(3), Size: 8})
	oldPred := old.Pred
	m.Recycle(old)
	if old.Pred != oldPred || old.Pred.String() != "⊤" || old.Mem != nil {
		t.Fatalf("a recycled state keeps its clauses: %s", old)
	}

	src := NewState()
	src.Pred.SetReg(x86.RDI, expr.V("rdi0"))
	want := src.String()
	outs, err := m.Step(src, nop)
	if err != nil || len(outs) != 1 {
		t.Fatalf("nop: %v, %d outcomes", err, len(outs))
	}
	got := outs[0].State
	if got != old || got.Pred != oldPred {
		t.Fatal("the clone did not reuse the recycled state and its predicate")
	}
	if got.String() != want || src.String() != want {
		t.Fatalf("clone %s, source %s, want both %s", got, src, want)
	}
	// The machine has no state left to hand out: the next clone allocates.
	if outs, _ := m.Step(src, nop); outs[0].State == old {
		t.Fatal("a recycled state was handed out twice")
	}
}

var stateSink *State

// TestCloneIsOneObject: a cloned state and its predicate are one
// allocation, and writing the clone's predicate leaves the source's as it
// was.
func TestCloneIsOneObject(t *testing.T) {
	src := InitialState("S_401000")
	if n := testing.AllocsPerRun(100, func() { stateSink = src.Clone() }); n != 1 {
		t.Fatalf("State.Clone allocates %v objects, want 1", n)
	}
	before := src.Pred.String()
	c := src.Clone()
	if c.Pred == src.Pred || !c.Mem.Same(src.Mem) {
		t.Fatal("clone must own its predicate and share the memory model")
	}
	c.Pred.SetReg(x86.RAX, expr.Word(7))
	c.Pred.WriteMem(expr.V("rsp0"), 8, expr.Word(9))
	c.Pred.AddRange(expr.V("rdi0"), pred.Range{Lo: 1, Hi: 2})
	if got := src.Pred.String(); got != before {
		t.Fatalf("writing the clone changed the source:\n%s\nwas\n%s", got, before)
	}
	if c.Pred.String() == before {
		t.Fatal("the clone's writes were lost")
	}
}
