package pred

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// TestWideningLadder drives a join chain through its three stages: exact
// hulls, power-of-sixteen jumps, and the final drop.
func TestWideningLadder(t *testing.T) {
	cur := New()
	cur.SetReg(x86.RAX, expr.Word(0))
	vars := NewJoinVars("vw")
	sawExact, sawJump := false, false
	for i := 1; i < 60; i++ {
		next := New()
		next.SetReg(x86.RAX, expr.Word(uint64(i)))
		j := Join(next, cur, vars)
		v := j.Reg(x86.RAX)
		if v == nil {
			t.Fatalf("iteration %d: clause dropped (never-nil join must keep it)", i)
		}
		r, ok := j.RangeOf(v)
		if !ok {
			// The ladder ended: the variable is unconstrained. Must only
			// happen after a jump stage.
			if !sawJump {
				t.Fatalf("iteration %d: dropped before any jump", i)
			}
			return
		}
		if r.Hi == uint64(i) {
			sawExact = true
		}
		if r.Hi > uint64(i) && (r.Hi+1)&r.Hi == 0 {
			sawJump = true // power-of-two-minus-one bound
		}
		cur = j
	}
	if !sawExact || !sawJump {
		t.Fatalf("ladder stages not observed: exact=%v jump=%v", sawExact, sawJump)
	}
	// With values within a jumped bound the chain is stable.
	stable := New()
	stable.SetReg(x86.RAX, expr.Word(3))
	j := Join(stable, cur, vars)
	if j.Key() != cur.Key() {
		t.Fatal("in-bound value must not change the fixed point")
	}
}

func TestRangesIterator(t *testing.T) {
	p := New()
	p.AddRange(expr.V("b"), Range{1, 2})
	p.AddRange(expr.V("a"), Range{3, 4})
	var got []string
	p.Ranges(func(e *expr.Expr, r Range) {
		got = append(got, e.Key())
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("iteration order: %v", got)
	}
}

func TestCodePointerParts(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(0x401000))
	p.SetReg(x86.RBX, expr.Word(0x10)) // not a code pointer
	p.SetReg(x86.RCX, expr.V("x"))     // not a word
	p.WriteMem(expr.V("rsi0"), 8, expr.Word(0x401030))
	p.WriteMem(expr.V("rdi0"), 8, expr.Word(0x401020))
	p.WriteMem(expr.V("rdi0"), 4, expr.Word(0x401010))
	p.WriteMem(expr.V("rdx0"), 8, expr.Word(0x99)) // not a code pointer
	got := strings.Join(p.CodePointerParts(0x400000, 0x500000), " ")
	want := "rax=401000 mrdi0=401010 mrdi0=401020 mrsi0=401030"
	if got != want {
		t.Fatalf("parts: %s, want %s", got, want)
	}
}

func TestVacuousRangeSkipped(t *testing.T) {
	p := New()
	p.AddRange(expr.V("x"), Range{0, ^uint64(0)})
	if _, ok := p.RangeOf(expr.V("x")); ok {
		t.Fatal("vacuous interval must not be stored")
	}
}

func TestAddRangeShiftNormalisation(t *testing.T) {
	// A clause on x + 5 normalises to a clause on x.
	p := New()
	e := expr.Add(expr.V("x"), expr.Word(5))
	p.AddRange(e, Range{10, 20})
	if r, ok := p.RangeOf(expr.V("x")); !ok || r != (Range{5, 15}) {
		t.Fatalf("shifted clause: %+v %v", r, ok)
	}
}

func TestRangeOfCompositeClause(t *testing.T) {
	// A stored clause on (a + b) bounds 8·(a + b) + k.
	p := New()
	sum := expr.Add(expr.V("a"), expr.V("b"))
	p.AddRange(sum, Range{0, 7})
	e := expr.Add(expr.Mul(expr.Word(8), sum), expr.Word(0x100))
	r, ok := p.RangeOf(e)
	if !ok || r != (Range{0x100, 0x138}) {
		t.Fatalf("composite range: %+v %v", r, ok)
	}
}

// TestRangeOfCompositeFirstInKeyOrder: when several stored compound
// clauses bound the value, the first in canonical key order decides, on
// every call.
func TestRangeOfCompositeFirstInKeyOrder(t *testing.T) {
	a, b := expr.V("rdi0"), expr.V("rsi0")
	p := New()
	p.AddRange(expr.Add(a, b), Range{0, 10})
	p.AddRange(expr.Add(expr.Mul(expr.Word(2), a), expr.Mul(expr.Word(2), b)), Range{0, 30})
	e := expr.Add(expr.Mul(expr.Word(4), a), expr.Mul(expr.Word(4), b))
	// "add(mul(0x2,rdi0),…)" sorts before "add(rdi0,rsi0)": 2·(rdi0+rsi0)
	// ∈ [0, 30] bounds 4·(rdi0+rsi0) by [0, 60].
	for i := 0; i < 200; i++ {
		if r, ok := p.RangeOf(e); !ok || r != (Range{0, 60}) {
			t.Fatalf("call %d: %+v %v, want [0, 60]", i, r, ok)
		}
	}
}

func TestJoinCmpRebuild(t *testing.T) {
	// Two states with the same comparison shape over different rax values:
	// the joined descriptor re-expresses over the joined register.
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	p.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.Word(3), Rhs: expr.Word(7), Size: 8})
	q.SetReg(x86.RAX, expr.Word(5))
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.Word(5), Rhs: expr.Word(7), Size: 8})
	j := Join(p, q, NewJoinVars("vc"))
	c := j.LastCmp()
	if c == nil {
		t.Fatal("descriptor must be rebuilt over the joined register")
	}
	if !c.Lhs.Equal(j.Reg(x86.RAX)) {
		t.Fatalf("rebuilt lhs: %v vs reg %v", c.Lhs, j.Reg(x86.RAX))
	}
}
