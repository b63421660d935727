package pred

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/x86"
)

func TestRegClauses(t *testing.T) {
	p := New()
	if p.Reg(x86.RAX) != nil {
		t.Fatal("fresh predicate must be ⊤")
	}
	p.SetReg(x86.RAX, expr.V("rdi0"))
	if got := p.Reg(x86.RAX); !got.Equal(expr.V("rdi0")) {
		t.Fatalf("rax = %v", got)
	}
	p.SetReg(x86.RAX, nil)
	if p.Reg(x86.RAX) != nil {
		t.Fatal("clearing failed")
	}
}

func TestMemClauses(t *testing.T) {
	p := New()
	addr := expr.Add(expr.V("rsp0"), expr.Word(0xfffffffffffffff8)) // rsp0 - 8
	p.WriteMem(addr, 8, expr.V("rbx0"))
	if v, ok := p.ReadMem(addr, 8); !ok || !v.Equal(expr.V("rbx0")) {
		t.Fatalf("read back: %v %v", v, ok)
	}
	// Different size is a different region clause.
	if _, ok := p.ReadMem(addr, 4); ok {
		t.Fatal("size must distinguish clauses")
	}
	p.DropMem(addr, 8)
	if _, ok := p.ReadMem(addr, 8); ok {
		t.Fatal("drop failed")
	}
}

func TestRanges(t *testing.T) {
	p := New()
	v := expr.V("x")
	p.AddRange(v, Range{0, 0xc3})
	r, ok := p.RangeOf(v)
	if !ok || r != (Range{0, 0xc3}) {
		t.Fatalf("range: %+v %v", r, ok)
	}
	// Intersection narrows.
	p.AddRange(v, Range{5, 0x200})
	r, _ = p.RangeOf(v)
	if r != (Range{5, 0xc3}) {
		t.Fatalf("narrowed: %+v", r)
	}
	// Contradiction ⇒ ⊥.
	p.AddRange(v, Range{0x300, 0x400})
	if !p.IsBot() {
		t.Fatal("contradictory ranges must give ⊥")
	}
}

// TestSameRanges checks that SameRanges compares the interval clauses
// only: other clauses may differ, a different bound may not.
func TestSameRanges(t *testing.T) {
	x := expr.V("x")
	p := New()
	p.AddRange(x, Range{0, 7})
	q := p.Clone()
	q.SetReg(x86.RAX, expr.Word(1))
	if !p.SameRanges(q) || p.Same(q) {
		t.Fatal("predicates differing only in a register clause must have the same ranges")
	}
	q.AddRange(x, Range{0, 3})
	if p.SameRanges(q) {
		t.Fatal("a narrowed interval must break SameRanges")
	}
}

func TestRangeOfLinear(t *testing.T) {
	p := New()
	v := expr.V("idx")
	p.AddRange(v, Range{0, 10})
	// 4·idx + 0x1000 ∈ [0x1000, 0x1028].
	e := expr.Add(expr.Mul(expr.Word(4), v), expr.Word(0x1000))
	r, ok := p.RangeOf(e)
	if !ok || r != (Range{0x1000, 0x1028}) {
		t.Fatalf("linear range: %+v %v", r, ok)
	}
	// Constant.
	if r, ok := p.RangeOf(expr.Word(7)); !ok || r != (Range{7, 7}) {
		t.Fatal("const range")
	}
	// Unconstrained term: no interval.
	if _, ok := p.RangeOf(expr.V("other")); ok {
		t.Fatal("unconstrained must have no interval")
	}
}

func TestAddRangeOnWord(t *testing.T) {
	p := New()
	p.AddRange(expr.Word(5), Range{0, 10}) // satisfied, no clause
	if p.IsBot() || len(p.own)+len(p.rest) != 0 {
		t.Fatal("in-range word must be a no-op")
	}
	p.AddRange(expr.Word(50), Range{0, 10})
	if !p.IsBot() {
		t.Fatal("out-of-range word must give ⊥")
	}
}

func TestJoinEqualClausesKept(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RBX, expr.V("rbx0"))
	q.SetReg(x86.RBX, expr.V("rbx0"))
	p.SetReg(x86.RAX, expr.V("a"))
	q.SetReg(x86.RAX, expr.V("b"))
	j := Join(p, q, NewJoinVars("v1"))
	if got := j.Reg(x86.RBX); !got.Equal(expr.V("rbx0")) {
		t.Fatalf("shared clause lost: %v", got)
	}
	// Incompatible values abstract to an unconstrained join variable.
	jv := j.Reg(x86.RAX)
	if jv == nil || jv.Kind() != expr.KindVar {
		t.Fatalf("incompatible clause must abstract to a join variable, got %v", jv)
	}
	if _, ok := j.RangeOf(jv); ok {
		t.Fatal("the abstraction of two unbounded values must be unconstrained")
	}
}

// TestJoinRangeAbstraction reproduces Example 3.4: {a=3} ⊔ {a=4} becomes
// an interval clause a ∈ [3,4].
func TestJoinRangeAbstraction(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	q.SetReg(x86.RAX, expr.Word(4))
	j := Join(p, q, NewJoinVars("v1"))
	jv := j.Reg(x86.RAX)
	if jv == nil {
		t.Fatal("range abstraction must keep a clause")
	}
	r, ok := j.RangeOf(jv)
	if !ok || r != (Range{3, 4}) {
		t.Fatalf("joined range: %+v %v", r, ok)
	}
	// Joining the result with yet another word widens the interval.
	s := New()
	s.SetReg(x86.RAX, expr.Word(10))
	j2 := Join(s, j, NewJoinVars("v1"))
	r, ok = j2.RangeOf(j2.Reg(x86.RAX))
	if !ok || r != (Range{3, 10}) {
		t.Fatalf("re-joined range: %+v %v", r, ok)
	}
}

func TestJoinIdempotentFixedPoint(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	q.SetReg(x86.RAX, expr.Word(4))
	vars := NewJoinVars("v1")
	j := Join(p.Clone(), q, vars) // Join consumes its first operand
	// p ⊑ j and q ⊑ j: joining either into j returns j itself.
	if Join(p, j, vars) != j || Join(q, j, vars) != j {
		t.Fatal("operands must be below the join")
	}
	// j ⊔ j = j.
	if Join(j.Clone(), j, vars) != j {
		t.Fatal("join must be idempotent")
	}
}

func TestJoinTermination(t *testing.T) {
	// Repeatedly joining ever-growing constants must reach a state where
	// the clause is widened away rather than growing forever.
	cur := New()
	cur.SetReg(x86.RAX, expr.Word(0))
	vars := NewJoinVars("v9")
	stable := 0
	for i := 1; i < 100; i++ {
		next := New()
		next.SetReg(x86.RAX, expr.Word(uint64(i)*7))
		j := Join(next, cur, vars)
		if j.Key() == cur.Key() {
			stable++
			if stable > 2 {
				break
			}
		} else {
			stable = 0
		}
		cur = j
	}
	if stable == 0 {
		t.Fatal("join chain did not stabilise")
	}
}

func TestJoinMemory(t *testing.T) {
	addr := expr.Sub(expr.V("rsp0"), expr.Word(16))
	p, q := New(), New()
	p.WriteMem(addr, 8, expr.V("rdi0"))
	q.WriteMem(addr, 8, expr.V("rdi0"))
	q.WriteMem(addr, 4, expr.Word(1)) // only in q
	j := Join(p, q, NewJoinVars("v1"))
	if v, ok := j.ReadMem(addr, 8); !ok || !v.Equal(expr.V("rdi0")) {
		t.Fatal("shared memory clause lost")
	}
	if _, ok := j.ReadMem(addr, 4); ok {
		t.Fatal("one-sided memory clause must be dropped")
	}
	// Word values get range-abstracted.
	p2, q2 := New(), New()
	p2.WriteMem(addr, 8, expr.Word(100))
	q2.WriteMem(addr, 8, expr.Word(200))
	j2 := Join(p2, q2, NewJoinVars("v1"))
	v, ok := j2.ReadMem(addr, 8)
	if !ok {
		t.Fatal("abstracted memory clause missing")
	}
	if r, ok := j2.RangeOf(v); !ok || r != (Range{100, 200}) {
		t.Fatalf("memory range: %+v", r)
	}
}

func TestJoinFlagsAndCmp(t *testing.T) {
	p, q := New(), New()
	c := &Cmp{Kind: CmpSub, Lhs: expr.V("a"), Rhs: expr.Word(0xc3), Size: 4}
	p.SetCmp(c)
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.V("a"), Rhs: expr.Word(0xc3), Size: 4})
	j := Join(p.Clone(), q, NewJoinVars("v1"))
	if j.LastCmp() == nil {
		t.Fatal("matching comparison descriptor must survive")
	}
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.V("b"), Rhs: expr.Word(1), Size: 4})
	if Join(p, q, NewJoinVars("v1")).LastCmp() != nil {
		t.Fatal("mismatched comparison must be dropped")
	}
	p2, q2 := New(), New()
	p2.SetFlag(x86.ZF, expr.Word(1))
	q2.SetFlag(x86.ZF, expr.Word(1))
	q2.SetFlag(x86.CF, expr.Word(0))
	j2 := Join(p2, q2, NewJoinVars("v1"))
	if j2.Flag(x86.ZF) == nil || j2.Flag(x86.CF) != nil {
		t.Fatal("flag join")
	}
}

func TestJoinBot(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(1))
	if j := Join(Bot(), p, NewJoinVars("v")); j.Key() != p.Key() {
		t.Fatal("⊥ ⊔ P must be P")
	}
	if j := Join(p, Bot(), NewJoinVars("v")); j.Key() != p.Key() {
		t.Fatal("P ⊔ ⊥ must be P")
	}
}

func TestClone(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(1))
	p.WriteMem(expr.V("rsp0"), 8, expr.V("ret"))
	p.AddRange(expr.V("x"), Range{1, 2})
	q := p.Clone()
	q.SetReg(x86.RAX, expr.Word(2))
	q.WriteMem(expr.V("rsp0"), 8, expr.Word(0))
	q.AddRange(expr.V("x"), Range{2, 2})
	if !p.Reg(x86.RAX).IsWord(1) {
		t.Fatal("clone aliases registers")
	}
	if v, _ := p.ReadMem(expr.V("rsp0"), 8); !v.Equal(expr.V("ret")) {
		t.Fatal("clone aliases memory")
	}
	if r, _ := p.RangeOf(expr.V("x")); r != (Range{1, 2}) {
		t.Fatal("clone aliases ranges")
	}
	// Writes to the original stay out of the clone, too.
	p.WriteMem(expr.V("rdi0"), 4, expr.Word(7))
	p.DropMem(expr.V("rsp0"), 8)
	p.AddRange(expr.V("y"), Range{0, 9})
	if v, _ := q.ReadMem(expr.V("rsp0"), 8); !v.IsWord(0) {
		t.Fatal("dropping the original's clause reached the clone")
	}
	if _, ok := q.ReadMem(expr.V("rdi0"), 4); ok {
		t.Fatal("the original's new memory clause reached the clone")
	}
	if _, ok := q.RangeOf(expr.V("y")); ok {
		t.Fatal("the original's new interval clause reached the clone")
	}
	if q.NumMem() != 1 {
		t.Fatalf("clone holds %d memory clauses, want 1", q.NumMem())
	}
}

var sink *Pred

// TestCloneAllocatesOnce pins the cost of a step's fork: the clause lists
// are shared, so a clone is one struct.
func TestCloneAllocatesOnce(t *testing.T) {
	p := benchPred("a")
	if n := testing.AllocsPerRun(100, func() { sink = p.Clone() }); n != 1 {
		t.Fatalf("Clone allocates %v objects, want 1", n)
	}
}

// TestJoinFixedPointReturnsStored: a join that reproduces the stored state
// returns that state itself, allocating nothing and leaving the first
// operand as it was (so the loop below may reuse it).
func TestJoinFixedPointReturnsStored(t *testing.T) {
	p := benchPred("a")
	vars := NewJoinVars("v1")
	q := Join(p.Clone(), benchPred("a"), vars)
	want := p.Clone()
	if Join(p, q, vars) != q {
		t.Fatal("join at the fixed point must return the stored operand")
	}
	if !p.Same(want) {
		t.Fatal("join at the fixed point wrote into its first operand")
	}
	if n := testing.AllocsPerRun(100, func() { sink = Join(p, q, vars) }); n != 0 {
		t.Fatalf("fixed-point join allocates %v objects, want 0", n)
	}
}

// TestConcurrentCloneShared clones one predicate from several goroutines,
// each of which then rewrites its own clone: the shared clause lists must
// never show another goroutine's writes (run under -race).
func TestConcurrentCloneShared(t *testing.T) {
	p := benchPred("a")
	want := p.Key()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := p.Clone()
				slot := expr.Add(expr.V("rsp0"), expr.Word(uint64(8*(g+1))))
				c.WriteMem(slot, 8, expr.Word(uint64(g)))
				c.FilterMem(func(m MemEntry) bool { return m.Addr != slot || m.Size == 8 })
				c.WriteMemWith(expr.V("rdi0"), 8, expr.Word(uint64(i)), func(m MemEntry) *expr.Expr { return m.Val })
				c.AddRange(expr.V(expr.Var(fmt.Sprintf("g%d", g))), Range{Lo: 0, Hi: uint64(i)})
				c.AddRange(expr.V("j0_a"), Range{Lo: 0, Hi: uint64(g)})
				if v, ok := c.ReadMem(slot, 8); !ok || !v.IsWord(uint64(g)) {
					t.Errorf("goroutine %d: own write lost", g)
				}
				if r, ok := c.RangeOf(expr.V("j0_a")); !ok || r.Hi != uint64(g) {
					t.Errorf("goroutine %d: own narrowing lost: %+v", g, r)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := p.Key(); got != want {
		t.Fatalf("the shared original changed:\n%s\nwant\n%s", got, want)
	}
}

// TestWriteMemWith: every clause passes through the rewrite, the written
// region's own clause included, and the written value replaces it.
func TestWriteMemWith(t *testing.T) {
	p := New()
	a, b, c := expr.V("a"), expr.V("b"), expr.V("c")
	p.WriteMem(a, 8, expr.Word(1))
	p.WriteMem(b, 8, expr.Word(2))
	p.WriteMem(c, 8, expr.Word(3))
	var seen []string
	p.WriteMemWith(b, 8, expr.Word(9), func(m MemEntry) *expr.Expr {
		seen = append(seen, m.Addr.Key())
		if m.Addr == a {
			return nil // dropped
		}
		return expr.Add(m.Val, expr.Word(10))
	})
	if got := strings.Join(seen, " "); got != "a b c" {
		t.Fatalf("rewrite saw %q, want every clause in order", got)
	}
	want := "*[b,8] == 0x9;*[c,8] == 0xd"
	if got := p.Key(); got != want {
		t.Fatalf("clauses %q, want %q", got, want)
	}
	// A write into an empty predicate installs the one clause.
	q := New()
	q.WriteMemWith(a, 4, expr.Word(5), func(MemEntry) *expr.Expr { t.Fatal("no clause to rewrite"); return nil })
	if v, ok := q.ReadMem(a, 4); !ok || !v.IsWord(5) {
		t.Fatal("written clause missing")
	}
}

func TestClausesRendering(t *testing.T) {
	p := New()
	if p.String() != "⊤" {
		t.Fatalf("top: %q", p.String())
	}
	if Bot().String() != "⊥" {
		t.Fatal("bot rendering")
	}
	p.SetReg(x86.RSP, expr.V("rsp0"))
	p.WriteMem(expr.V("rsp0"), 8, expr.V("a_r"))
	p.AddRange(expr.V("i"), Range{0, 5})
	s := p.String()
	for _, want := range []string{"rsp == rsp0", "*[rsp0,8] == a_r", "i >= 0x0", "i <= 0x5"} {
		if !contains(s, want) {
			t.Errorf("clauses %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: the join soundness criterion on point values — any word
// satisfying either operand's register clause satisfies the join (it lies
// in the abstracted interval).
func TestQuickJoinSoundness(t *testing.T) {
	f := func(a, b uint64) bool {
		p, q := New(), New()
		p.SetReg(x86.RAX, expr.Word(a))
		q.SetReg(x86.RAX, expr.Word(b))
		j := Join(p, q, NewJoinVars("vq"))
		jv := j.Reg(x86.RAX)
		if jv == nil {
			return true // dropped clause is trivially sound
		}
		r, ok := j.RangeOf(jv)
		return ok && r.Contains(a) && r.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: join is commutative up to predicate keys.
func TestQuickJoinCommutative(t *testing.T) {
	f := func(a, b uint64, sameReg bool) bool {
		p, q := New(), New()
		p.SetReg(x86.RAX, expr.Word(a))
		if sameReg {
			q.SetReg(x86.RAX, expr.Word(b))
		} else {
			q.SetReg(x86.RBX, expr.Word(b))
		}
		return Join(p.Clone(), q, NewJoinVars("vc")).Key() == Join(q, p, NewJoinVars("vc")).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetClausesRejectsNonCanonicalLists: the one-pass installs accept a
// list only in canonical order without repeats, and an interval clause
// only in the form AddRange stores.
func TestSetClausesRejectsNonCanonicalLists(t *testing.T) {
	a, b, x := expr.V("a"), expr.V("b"), expr.V("x")
	one := func(e *expr.Expr, lo, hi uint64) RangeClause { return RangeClause{E: e, R: Range{lo, hi}} }
	for _, tc := range []struct {
		name    string
		clauses []RangeClause
		ok      bool
	}{
		{"canonical", []RangeClause{one(a, 0, 1), one(b, 2, 3)}, true},
		{"swapped", []RangeClause{one(b, 2, 3), one(a, 0, 1)}, false},
		{"repeated", []RangeClause{one(a, 0, 1), one(a, 0, 1)}, false},
		{"word", []RangeClause{one(expr.Word(5), 0, 9)}, false},
		{"vacuous", []RangeClause{one(a, 0, ^uint64(0))}, false},
		{"shift-normalisable", []RangeClause{one(expr.Add(x, expr.Word(5)), 10, 20)}, false},
	} {
		p := New()
		err := p.SetRangeClauses(tc.clauses)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
		if tc.ok {
			if r, found := p.RangeOf(b); !found || r != (Range{2, 3}) {
				t.Errorf("%s: installed list lost a clause", tc.name)
			}
		}
	}
	mem := func(e *expr.Expr, size int) MemEntry { return MemEntry{Addr: e, Size: size, Val: expr.Word(1)} }
	if err := New().SetMemClauses([]MemEntry{mem(a, 4), mem(a, 8), mem(b, 8)}); err != nil {
		t.Errorf("canonical memory list rejected: %v", err)
	}
	if err := New().SetMemClauses([]MemEntry{mem(a, 8), mem(a, 4)}); err == nil {
		t.Error("memory list out of size order accepted")
	}
	if err := New().SetMemClauses([]MemEntry{mem(b, 8), mem(b, 8)}); err == nil {
		t.Error("repeated memory clause accepted")
	}
}
