package solver

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
)

// BenchmarkSolverCompareCached measures the memo-hit path of the cached
// Compare: a pair whose difference has a symbolic term (an array slot
// indexed by i against a fixed slot), as the lifter's oracle and hglint ask
// it again at every vertex with the same interval clauses. (Step 2 calls
// Compare directly, without a cache.)
func BenchmarkSolverCompareCached(b *testing.B) {
	p := pred.New()
	p.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 15})
	p.AddRange(expr.V("j4_rax"), pred.Range{Lo: 0, Hi: 0xff})
	rsp := expr.V("rsp0")
	r0 := Region{Addr: expr.Add(rsp, expr.Word(^uint64(0)-15)), Size: 8}
	r1 := Region{Addr: expr.Add(rsp, expr.Add(expr.Mul(expr.Word(8), expr.V("i")), expr.Word(^uint64(0)-63))), Size: 8}
	c := NewCache()
	if _, hit := c.Compare(p, r0, r1); hit {
		b.Fatal("first query cannot hit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Compare(p, r0, r1); !hit {
			b.Fatal("warm query must hit")
		}
	}
}

// BenchmarkSolverCompareExact measures the constant-offset path of the
// cached Compare — two slots of one frame, most of what the lifter and
// hglint ask: answered from geometry before any memo probe, with no
// allocation and no new entry.
func BenchmarkSolverCompareExact(b *testing.B) {
	p := pred.New()
	p.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 15})
	rsp := expr.V("rsp0")
	r0 := Region{Addr: expr.Add(rsp, expr.Word(^uint64(0)-15)), Size: 8}
	r1 := Region{Addr: expr.Add(rsp, expr.Word(^uint64(0)-63)), Size: 8}
	c := NewCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, hit := c.Compare(p, r0, r1); hit || res.Separate != Yes {
			b.Fatalf("constant-offset query: %+v (hit %v)", res, hit)
		}
	}
	b.StopTimer()
	if s := c.Stats(); s.Entries != 0 {
		b.Fatalf("constant-offset queries left %d memo entries", s.Entries)
	}
}
