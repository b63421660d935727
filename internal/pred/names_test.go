package pred

import (
	"testing"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/x86"
)

// TestJoinVarNames pins the names of join variables, which are canonical
// output: "j<vertex>_<register>" and "j<vertex>_m<region key>_<size>" with
// every rune of the key that is not an ASCII letter or digit turned into
// one '_'. The expected names are written out literally: graphs and stores
// carry them, so a change to how names are built must leave them as they
// are.
func TestJoinVarNames(t *testing.T) {
	v := NewJoinVars("401a2c")
	w := NewJoinVars("4011f0/rax=401234") // a vertex kept apart by a code pointer
	for _, tc := range []struct {
		vars *JoinVars
		reg  x86.Reg
		want expr.Var
	}{
		{v, x86.RAX, "j401a2c_rax"},
		{v, x86.R15, "j401a2c_r15"},
		{v, x86.RSP, "j401a2c_rsp"},
		{w, x86.RDI, "j4011f0/rax=401234_rdi"},
	} {
		if got := tc.vars.reg(int(tc.reg)).VarName(); got != tc.want {
			t.Errorf("register %s: %q, want %q", tc.reg, got, tc.want)
		}
	}
	rsp := expr.V("rsp0")
	for _, tc := range []struct {
		vars *JoinVars
		addr *expr.Expr
		size int
		want expr.Var
	}{
		{v, rsp, 8, "j401a2c_mrsp0_8"},
		{v, expr.Add(rsp, expr.Word(^uint64(7))), 8, "j401a2c_madd_rsp0_0xfffffffffffffff8__8"},
		{v, expr.Add(expr.V("rdi0"), expr.Mul(expr.Word(4), expr.V("rsi0")), expr.Word(0x10)), 4,
			"j401a2c_madd_rdi0_mul_0x4_rsi0__0x10__4"},
		{v, expr.Deref(expr.Add(rsp, expr.Word(^uint64(15))), 8), 1, "j401a2c_m__add_rsp0_0xfffffffffffffff0__8__1"},
		{v, expr.V("πx0"), 2, "j401a2c_m_x0_2"},
		{v, expr.Add(expr.V("naïve0"), expr.Word(8)), 8, "j401a2c_madd_na_ve0_0x8__8"},
		{w, expr.Add(rsp, expr.Word(^uint64(7))), 8, "j4011f0/rax=401234_madd_rsp0_0xfffffffffffffff8__8"},
	} {
		if got := tc.vars.memVar(tc.addr, tc.size).VarName(); got != tc.want {
			t.Errorf("region %s#%d: %q, want %q", tc.addr.Key(), tc.size, got, tc.want)
		}
	}
}

// TestJoinVarNamingAllocatesNothing: naming a variable the process has
// already interned builds the name on the stack and allocates nothing.
func TestJoinVarNamingAllocatesNothing(t *testing.T) {
	v := NewJoinVars("401a2c")
	addr := expr.Add(expr.V("rsp0"), expr.Word(^uint64(7)))
	reg, mem := v.reg(int(x86.RAX)), v.memVar(addr, 8)
	if n := testing.AllocsPerRun(100, func() {
		v.regs[x86.RAX] = nil
		if v.reg(int(x86.RAX)) != reg {
			t.Fatal("register variable renamed")
		}
	}); n != 0 {
		t.Errorf("naming an interned register variable: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v.mem = v.mem[:0]
		if v.memVar(addr, 8) != mem {
			t.Fatal("memory variable renamed")
		}
	}); n != 0 {
		t.Errorf("naming an interned memory variable: %v allocs, want 0", n)
	}
}

// TestPredSize pins the predicate at 280 bytes: 256 plus the second
// interval list's slice header. A cloned sem.State (32 bytes) and its
// predicate are one 312-byte object in the 320-byte malloc size class, so
// a field that grows the predicate by more than 8 bytes costs every clone
// that finds no recycled state the next class up.
func TestPredSize(t *testing.T) {
	if n := unsafe.Sizeof(Pred{}); n != 280 {
		t.Fatalf("Pred is %d bytes, want 280", n)
	}
}

// TestRangeMaskFollowsClauses: every way an interval clause list is
// installed (AddRange, a decoder's SetRangeClauses, a join) keeps the mask
// in step with both lists, so lookups through it find each clause, in
// the own list or the rest.
func TestRangeMaskFollowsClauses(t *testing.T) {
	x, y := expr.V("mask_x"), expr.V("mask_y")
	p := New()
	p.AddRange(x, Range{1, 2})
	if r, ok := p.RangeOf(x); !ok || r != (Range{1, 2}) {
		t.Fatalf("AddRange: %+v %v", r, ok)
	}
	if _, ok := p.RangeOf(y); ok {
		t.Fatal("no clause on y")
	}
	d := New()
	if err := d.SetRangeClauses([]RangeClause{{E: x, R: Range{1, 2}}, {E: y, R: Range{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if r, ok := d.RangeOf(y); !ok || r != (Range{3, 4}) {
		t.Fatalf("SetRangeClauses: %+v %v", r, ok)
	}
	p.SetReg(x86.RAX, expr.Word(5))
	q := New()
	q.SetReg(x86.RAX, expr.Word(9))
	j := Join(p, q, NewJoinVars("vm"))
	jv := j.Reg(x86.RAX)
	if r, ok := j.RangeOf(jv); !ok || r != (Range{5, 9}) {
		t.Fatalf("join: %+v %v", r, ok)
	}
	if len(j.own) != 1 || len(d.own) != 0 {
		t.Fatalf("the join's variable belongs in its own list, a decoded clause in the rest: %+v, %+v", j.own, d.own)
	}
	j.AddRange(jv, Range{6, 8}) // narrows the own clause
	j.AddRange(y, Range{3, 4})  // a new clause, into the rest
	if r, ok := j.RangeOf(jv); !ok || r != (Range{6, 8}) {
		t.Fatalf("AddRange on an own clause: %+v %v", r, ok)
	}
	if r, ok := j.RangeOf(y); !ok || r != (Range{3, 4}) || len(j.rest) != 1 {
		t.Fatalf("AddRange of a new clause: %+v %v, rest %+v", r, ok, j.rest)
	}
	for _, x := range []*Pred{p, d, j} {
		if x.rmask != rangeMask(x.own)|rangeMask(x.rest) {
			t.Fatal("mask out of step with the clause lists")
		}
	}
}
