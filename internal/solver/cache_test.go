package solver

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
)

// genAddrs returns addresses of the shapes compiler-generated arithmetic
// takes, with random constant offsets: one base, one base plus a scaled
// index (two scales, two indices), two other bases, and pure constants.
// Any two of one family differ by a constant; pairs across families do
// not, except where an interval clause bounds the difference.
func genAddrs(r *rand.Rand) []*expr.Expr {
	off := func() *expr.Expr { return expr.Word(uint64(r.Int63n(129) - 64)) }
	rsp, rdi, rsi := expr.V("rsp0"), expr.V("rdi0"), expr.V("rsi0")
	i, j := expr.V("i"), expr.V("j")
	var out []*expr.Expr
	for k := 0; k < 3; k++ {
		out = append(out,
			expr.Add(rsp, off()),
			expr.Add(rsp, expr.Mul(expr.Word(8), i), off()),
			expr.Add(rsp, expr.Mul(expr.Word(4), i), off()),
			expr.Add(rsp, expr.Mul(expr.Word(8), j), off()),
			expr.Add(rdi, off()),
			expr.Add(rsi, expr.Mul(expr.Word(^uint64(0)), i), off()),
			expr.Word(0x601000+uint64(r.Intn(64))),
		)
	}
	return out
}

// TestCacheCompareMatchesSubVerdict checks, on generated pairs under
// predicates with and without interval clauses, that Cache.Compare (cold
// and warm) and Compare return the verdict of the difference built by
// Sub, and that a constant-offset query is answered exactly, without a
// memo entry.
func TestCacheCompareMatchesSubVerdict(t *testing.T) {
	bounded := pred.New()
	bounded.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 7})
	bounded.AddRange(expr.V("j"), pred.Range{Lo: 2, Hi: 3})
	preds := map[string]*pred.Pred{"no intervals": pred.New(), "intervals": bounded}
	sizes := []uint64{1, 4, 8, 16}

	r := rand.New(rand.NewSource(1))
	addrs := genAddrs(r)
	var exactPairs, memoPairs int
	for name, p := range preds {
		c := NewCache()
		for _, a0 := range addrs {
			for _, a1 := range addrs {
				r0 := Region{Addr: a0, Size: sizes[r.Intn(len(sizes))]}
				r1 := Region{Addr: a1, Size: sizes[r.Intn(len(sizes))]}
				d := expr.ToLinear(a0).Sub(expr.ToLinear(a1))
				want := compareDiff(p, d, int64(r0.Size), int64(r1.Size))
				if got := Compare(p, r0, r1); got != want {
					t.Fatalf("%s: Compare(%v, %v) = %+v, Sub verdict %+v", name, r0, r1, got, want)
				}
				before := c.Stats()
				cold, _ := c.Compare(p, r0, r1)
				warm, hit := c.Compare(p, r0, r1)
				after := c.Stats()
				if cold != want || warm != want {
					t.Fatalf("%s: Cache.Compare(%v, %v) = %+v then %+v, Sub verdict %+v", name, r0, r1, cold, warm, want)
				}
				if _, constant := d.Const(); constant {
					exactPairs++
					if hit || after.Entries != before.Entries || after.Exact != before.Exact+2 || after.Hits != before.Hits {
						t.Fatalf("%s: constant-offset pair %v, %v: stats %+v -> %+v, want two exact answers and no entry",
							name, r0, r1, before, after)
					}
				} else {
					memoPairs++
					if !hit || after.Exact != before.Exact || after.Entries > before.Entries+1 {
						t.Fatalf("%s: pair %v, %v: stats %+v -> %+v, want at most one new entry, then a hit",
							name, r0, r1, before, after)
					}
				}
				if after.Queries != before.Queries+2 {
					t.Fatalf("%s: two queries counted as %d", name, after.Queries-before.Queries)
				}
			}
		}
	}
	if exactPairs == 0 || memoPairs == 0 {
		t.Fatalf("generated %d constant-offset and %d other pairs; want both", exactPairs, memoPairs)
	}
}

// TestCacheExactNoEntry: a constant-offset query adds no memo entry and
// allocates nothing.
func TestCacheExactNoEntry(t *testing.T) {
	c := NewCache()
	p := pred.New()
	r0, r1 := Region{Addr: rsp(-16), Size: 8}, Region{Addr: rsp(-8), Size: 8}
	res, hit := c.Compare(p, r0, r1)
	if hit || res.Separate != Yes {
		t.Fatalf("adjacent slots: %+v (hit %v), want separate, not a hit", res, hit)
	}
	if n := testing.AllocsPerRun(100, func() { c.Compare(p, r0, r1) }); n != 0 {
		t.Fatalf("constant-offset query: %v allocs, want 0", n)
	}
	if s := c.Stats(); s.Entries != 0 || s.Hits != 0 || s.Exact != s.Queries {
		t.Fatalf("stats %+v, want every query exact and no entry", s)
	}
}
