package expr

import (
	"sync"
	"testing"
)

// TestToLinearCached checks that a node's linear form is built once and
// then shared: a second ToLinear returns the same form without allocating.
func TestToLinearCached(t *testing.T) {
	e := Add(V("lin_x"), Mul(Word(3), V("lin_y")), Word(5))
	l := ToLinear(e)
	if ToLinear(e) != l {
		t.Fatal("second ToLinear built a new form")
	}
	if n := testing.AllocsPerRun(100, func() { ToLinear(e) }); n != 0 {
		t.Fatalf("ToLinear on a linearised node: %v allocs, want 0", n)
	}
}

// TestToLinearCanonicalOrder checks that a cached form lists its atoms in
// canonical key order, whatever order the sum was built in.
func TestToLinearCanonicalOrder(t *testing.T) {
	a, b, c := V("ord_a"), V("ord_b"), V("ord_c")
	var got []*Expr
	ToLinear(Add(c, Mul(Word(2), a), b)).Terms(func(atom *Expr, _ uint64) {
		got = append(got, atom)
	})
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("term order: %v", got)
	}
}

// TestSubLeavesOperandForm checks that Sub builds its difference in a form
// of its own: the shared linear form of the minuend is unchanged.
func TestSubLeavesOperandForm(t *testing.T) {
	x, y := V("sub_x"), V("sub_y")
	a := Add(x, Word(8))
	l := ToLinear(a)
	if d := Sub(a, Add(x, y)); d != Sub(Word(8), y) {
		t.Fatalf("(x+8) - (x+y) = %v", d)
	}
	if atom, c, ok := l.SingleTerm(); ToLinear(a) != l || l.K != 8 || !ok || atom != x || c != 1 {
		t.Fatalf("Sub changed the minuend's linear form: K=%d terms=%d", l.K, l.NumTerms())
	}
	if l.Expr() != a {
		t.Fatalf("minuend's form re-emits %v, want %v", l.Expr(), a)
	}
}

// TestToLinearConcurrent linearises one fresh node from many goroutines;
// under -race this exercises the compare-and-swap publication of the form.
func TestToLinearConcurrent(t *testing.T) {
	e := Add(V("conc_x"), Mul(Word(4), V("conc_y")), Word(1))
	const workers = 8
	forms := make([]*Linear, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := ToLinear(e)
			l.Terms(func(*Expr, uint64) {})
			forms[w] = l
		}(w)
	}
	wg.Wait()
	for w, l := range forms {
		if l != forms[0] {
			t.Fatalf("worker %d got a different form", w)
		}
	}
	if forms[0].Expr() != e {
		t.Fatalf("round trip: %v", forms[0].Expr())
	}
}

// TestDebugCrossCheckCatchesStaleForm corrupts a cached form and checks
// that the debugEqual cross-check panics on the next ToLinear.
func TestDebugCrossCheckCatchesStaleForm(t *testing.T) {
	defer func(old bool) { debugEqual = old }(debugEqual)
	debugEqual = true
	e := Add(V("stale_x"), Word(2))
	ToLinear(e)
	stale := &Linear{K: 3, terms: ToLinear(e).terms}
	good := e.lin.Swap(stale)
	defer e.lin.Store(good)
	defer func() {
		if recover() == nil {
			t.Fatal("a stale cached form went unnoticed")
		}
	}()
	ToLinear(e)
}

// TestConstDiffMatchesSub checks ConstDiff against the difference Sub
// builds: it reports a constant exactly when Sub's difference is one, with
// the same value, and allocates nothing.
func TestConstDiffMatchesSub(t *testing.T) {
	x, y := V("cd_x"), V("cd_y")
	forms := []*Expr{
		Word(0x40),
		Add(x, Word(8)),
		Add(x, Word(^uint64(0)-7)),
		Add(x, Mul(Word(8), y), Word(16)),
		Add(Mul(Word(8), y), x),
		Add(x, Mul(Word(4), y)),
		Add(y, Word(8)),
		Sub(Word(3), x),
	}
	for _, a := range forms {
		for _, b := range forms {
			la, lb := ToLinear(a), ToLinear(b)
			want, wantOK := la.Sub(lb).Const()
			got, ok := la.ConstDiff(lb)
			if ok != wantOK || got != want {
				t.Errorf("ConstDiff(%s, %s) = %#x, %v; Sub gives %#x, %v", a, b, got, ok, want, wantOK)
			}
		}
	}
	la, lb := ToLinear(forms[3]), ToLinear(forms[4])
	if n := testing.AllocsPerRun(100, func() { la.ConstDiff(lb) }); n != 0 {
		t.Fatalf("ConstDiff: %v allocs, want 0", n)
	}
}

// TestRatio checks Ratio against a per-atom reading of the two forms: it
// finds the scale s with l's terms s times m's exactly when every atom of
// m has a coefficient in l that is the same exact multiple of its own, and
// the two forms have the same atoms; it allocates nothing.
func TestRatio(t *testing.T) {
	x, y, z := V("ra_x"), V("ra_y"), V("ra_z")
	forms := []*Expr{
		Word(7),
		Add(x, y),
		Add(x, y, Word(3)),
		Add(Mul(Word(2), x), Mul(Word(2), y)),
		Add(Mul(Word(6), x), Mul(Word(6), y), Word(1)),
		Add(Mul(Word(2), x), Mul(Word(3), y)),
		Add(Mul(Word(4), x), Mul(Word(6), y)),
		Add(x, z),
		Neg(Add(x, y)),
		x,
		Mul(Word(5), x),
	}
	coeff := func(l *Linear, t *Expr) uint64 {
		var c uint64
		l.Terms(func(atom *Expr, ac uint64) {
			if atom == t {
				c = ac
			}
		})
		return c
	}
	perAtom := func(l, m *Linear) (uint64, bool) {
		if l.NumTerms() != m.NumTerms() || m.NumTerms() == 0 {
			return 0, false
		}
		var scale uint64
		ok := true
		m.Terms(func(atom *Expr, mc uint64) {
			lc := coeff(l, atom)
			if lc == 0 || lc%mc != 0 || scale != 0 && lc/mc != scale {
				ok = false
			}
			if ok {
				scale = lc / mc
			}
		})
		if !ok {
			return 0, false
		}
		return scale, true
	}
	matched := 0
	for _, a := range forms {
		for _, b := range forms {
			la, lb := ToLinear(a), ToLinear(b)
			want, wantOK := perAtom(la, lb)
			got, ok := la.Ratio(lb)
			if ok != wantOK || got != want {
				t.Errorf("Ratio(%s, %s) = %d, %v; want %d, %v", a, b, got, ok, want, wantOK)
			}
			if ok {
				matched++
			}
		}
	}
	if matched < 10 {
		t.Fatalf("only %d pairs have a ratio: the table tests too little", matched)
	}
	if s, ok := ToLinear(forms[4]).Ratio(ToLinear(forms[2])); !ok || s != 6 {
		t.Fatalf("6x+6y+1 over x+y+3: %d, %v, want 6", s, ok)
	}
	la, lb := ToLinear(forms[6]), ToLinear(forms[5])
	if n := testing.AllocsPerRun(100, func() { la.Ratio(lb) }); n != 0 {
		t.Fatalf("Ratio: %v allocs, want 0", n)
	}
}
