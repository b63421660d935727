package pred

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// rangeOfWalk is RangeOf with the compound-clause walk always run: the
// reference for the skip on predicates whose clauses are all on bare
// atoms.
func rangeOfWalk(p *Pred, e *expr.Expr) (Range, bool) {
	q := *p
	q.compound = true
	return q.RangeOf(e)
}

// TestRangeOfSkipIsExact compares RangeOf with the walk-always reference
// on random predicates and values. Clauses are on bare atoms, masked
// atoms (bare too: an and is an atom of its linear form), sums, scaled
// atoms and atom + K with a K the interval does not let AddRange shift
// off (so the clause stays compound); values are constants, atoms and
// clause expressions scaled and shifted by amounts at the edges of the
// walk's caps and of wrapping. Predicates with only bare clauses must
// skip the walk, and the walk must match somewhere on the others, or the
// comparison proves nothing.
func TestRangeOfSkipIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	atoms := []*expr.Expr{
		expr.V("ra0"), expr.V("ra1"), expr.V("ra2"),
		expr.And(expr.V("ra3"), expr.Word(0xff)),
		expr.Deref(expr.Add(expr.V("rsp0"), expr.Word(8)), 8),
	}
	edges := []uint64{0, 1, 2, 7, 0xff, 1 << 23, 1<<23 + 1, 1 << 32, 1<<32 + 1,
		1 << 40, 1<<40 + 1, 1 << 63, ^uint64(0) - 7, ^uint64(0)}
	pick := func(xs []uint64) uint64 { return xs[rng.Intn(len(xs))] }
	atom := func() *expr.Expr { return atoms[rng.Intn(len(atoms))] }
	interval := func() Range {
		a, b := pick(edges), pick(edges)
		if rng.Intn(2) == 0 {
			a, b = uint64(rng.Intn(64)), uint64(rng.Intn(1<<12))
		}
		return Range{Lo: min(a, b), Hi: max(a, b)}
	}
	compoundClause := func() (*expr.Expr, Range) {
		r := interval()
		switch rng.Intn(3) {
		case 0:
			return expr.Add(atom(), atom()), r
		case 1:
			return expr.Mul(expr.Word(pick(edges)|2), atom()), r
		default: // atom + K with K ≥ lo: AddRange keeps it as given
			k := max(pick(edges), 1)
			r.Lo = min(r.Lo, k)
			return expr.Add(atom(), expr.Word(k)), r
		}
	}
	value := func(p *Pred) *expr.Expr {
		k := expr.Word(pick(edges))
		c := expr.Word(pick(edges))
		switch rng.Intn(5) {
		case 0:
			return k
		case 1:
			return atom()
		case 2:
			return expr.Add(expr.Mul(c, atom()), k)
		case 3:
			return expr.Add(expr.Mul(c, atom()), expr.Mul(expr.Word(pick(edges)), atom()), k)
		default: // a stored clause's expression, scaled and shifted
			var es []*expr.Expr
			p.Ranges(func(e *expr.Expr, _ Range) { es = append(es, e) })
			if len(es) == 0 {
				return atom()
			}
			return expr.Add(expr.Mul(c, es[rng.Intn(len(es))]), k)
		}
	}

	var skipped, walkMatched int
	for n := 0; n < 20000; n++ {
		p := New()
		bareOnly := n%2 == 0
		for i := rng.Intn(5); i > 0; i-- {
			if bareOnly || rng.Intn(2) == 0 {
				p.AddRange(atom(), interval())
			} else {
				p.AddRange(compoundClause())
			}
		}
		if p.IsBot() {
			continue
		}
		if bareOnly && p.compound {
			t.Fatalf("predicate %s: compound flag set with every clause on a bare atom", p)
		}
		for i := 0; i < 8; i++ {
			e := value(p)
			got, gotOK := p.RangeOf(e)
			want, wantOK := rangeOfWalk(p, e)
			if got != want || gotOK != wantOK {
				t.Fatalf("RangeOf(%s) under %s = %+v %v, the walk gives %+v %v", e, p, got, gotOK, want, wantOK)
			}
			if !p.compound {
				skipped++
				continue
			}
			q := *p
			q.compound = false
			if r, ok := q.RangeOf(e); ok != gotOK || r != got {
				walkMatched++
			}
		}
	}
	if skipped < 10000 || walkMatched < 100 {
		t.Fatalf("weak sample: %d values skipped the walk, the walk matched %d", skipped, walkMatched)
	}
	t.Logf("%d values skipped the walk; on compound predicates the walk matched %d", skipped, walkMatched)
}

// TestCompoundFlagFollowsClauses: the flag is set by every way an interval
// list is installed, and cleared when the last compound clause goes.
func TestCompoundFlagFollowsClauses(t *testing.T) {
	x, y := expr.V("cf_x"), expr.V("cf_y")
	sum := expr.Add(x, y)
	p := New()
	p.AddRange(x, Range{0, 4})
	if p.compound {
		t.Fatal("bare clause set the flag")
	}
	p.AddRange(sum, Range{0, 9})
	if !p.compound {
		t.Fatal("AddRange of a sum left the flag clear")
	}
	d := New()
	if err := d.SetRangeClauses([]RangeClause{{E: sum, R: Range{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if !d.compound {
		t.Fatal("SetRangeClauses of a sum left the flag clear")
	}
	// The join keeps only clauses both sides hold: the sum goes.
	q := New()
	q.AddRange(x, Range{2, 6})
	if j := Join(p, q, NewJoinVars("cf")); j.compound {
		t.Fatalf("join without a compound clause kept the flag: %s", j)
	}
}
