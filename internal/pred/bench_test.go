package pred

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// benchPred builds a predicate of the shape the lifter produces mid-loop:
// register clauses, a handful of memory clauses, and interval clauses on
// join variables.
func benchPred(tag string) *Pred {
	p := New()
	rsp := expr.V("rsp0")
	p.SetReg(x86.RSP, expr.Sub(rsp, expr.Word(0x40)))
	p.SetReg(x86.RBP, expr.Sub(rsp, expr.Word(8)))
	p.SetReg(x86.RDI, expr.V("rdi0"))
	p.SetReg(x86.RAX, expr.V(expr.Var("jv_"+tag)))
	for i := 0; i < 6; i++ {
		addr := expr.Add(rsp, expr.Word(uint64(^uint64(0)-uint64(8*i)+1)))
		p.WriteMem(addr, 8, expr.V(expr.Var(fmt.Sprintf("m%d_%s", i, tag))))
	}
	for i := 0; i < 8; i++ {
		p.AddRange(expr.V(expr.Var(fmt.Sprintf("j%d_%s", i, tag))), Range{Lo: 0, Hi: uint64(16 << i)})
	}
	return p
}

// BenchmarkRangesFingerprint measures deriving the solver-memo fingerprint
// of the interval clause set after a branch refinement: a step clones the
// state, the refinement adds an interval clause, and the solver's memo
// fingerprints the new clause list.
func BenchmarkRangesFingerprint(b *testing.B) {
	p := benchPred("a")
	idx := expr.V("idx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		q.AddRange(idx, Range{Lo: 0, Hi: 0xff})
		_ = q.RangesFingerprint()
	}
}

// BenchmarkJoin measures the predicate join of Definition 3.3 on two
// predicates that share most clauses — the fixed-point iteration shape.
// The vertex's join variables are built once, as the explorer keeps them.
// Join consumes its first operand, so each iteration joins a clone, as the
// explorer joins the clone a step made.
//
// mem=6 is benchPred's shape: one register differs. mem=64 gives both
// sides 64 memory clauses whose values all differ, so every one is
// abstracted to its join variable and looked up in the vertex's table on
// each join: almost six times the most memory variables (11) a vertex of
// the Table 1, CoreUtils or ptr_ corpora holds.
func BenchmarkJoin(b *testing.B) {
	b.Run("mem=6", func(b *testing.B) {
		p := benchPred("a")
		q := benchPred("a")
		q.SetReg(x86.RCX, expr.Word(0x10))
		p.SetReg(x86.RCX, expr.Word(0x20))
		benchJoin(b, p, q)
	})
	b.Run("mem=64", func(b *testing.B) {
		p, q := New(), New()
		rsp := expr.V("rsp0")
		for i := 0; i < 64; i++ {
			addr := expr.Add(rsp, expr.Word(-uint64(8*(i+1))))
			p.WriteMem(addr, 8, expr.Word(uint64(i)))
			q.WriteMem(addr, 8, expr.Word(uint64(i+100)))
		}
		benchJoin(b, p, q)
	})
}

// benchJoin measures Join(p.Clone(), q) at a vertex whose join variables
// the first join made.
func benchJoin(b *testing.B, p, q *Pred) {
	vars := NewJoinVars("v1")
	Join(p.Clone(), q, vars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Join(p.Clone(), q, vars)
		if out.IsBot() {
			b.Fatal("join must not be bottom")
		}
	}
}

// BenchmarkJoinFixedPoint measures the fixed-point test itself: joining a
// state already below the stored one, which returns the stored state and
// leaves the first operand as it was.
func BenchmarkJoinFixedPoint(b *testing.B) {
	p := benchPred("a")
	vars := NewJoinVars("v1")
	q := Join(p.Clone(), benchPred("a"), vars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Join(p, q, vars) != q {
			b.Fatal("p must be below its own join")
		}
	}
}
