// Solver-backed quick-checks: per-vertex clause consistency. The
// predicate's memory-equality clauses name regions; when the solver
// proves two of those regions necessarily alias, their value clauses
// must agree — otherwise the invariant assigns two different values to
// one concrete region and is unsatisfiable, which would make the vertex's
// Step-2 theorem vacuous rather than meaningful. Only pairs that could
// produce a finding reach the solver: Alias is never Yes for regions of
// different sizes, and clauses carrying the same interned value cannot
// disagree. The queries go through Ctx.Compare, so a supplied memo cache
// (the pipeline's shared one) is both consulted and warmed.

package hglint

import (
	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/solver"
)

func init() {
	Register(Rule{
		Name:     "pred-inconsistent",
		Severity: SevError,
		Doc:      "no two memory-equality clauses assign different values to necessarily aliasing regions",
		Check:    perVertexModel(checkPredConsistent),
	})
}

func checkPredConsistent(ctx *Ctx, v *hoare.Vertex) {
	p := v.State.Pred
	entries := ctx.memBuf[:0]
	p.MemEntries(func(m pred.MemEntry) { entries = append(entries, m) })
	ctx.memBuf = entries
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			a, b := entries[i], entries[j]
			if a.Size != b.Size || a.Val == b.Val {
				continue
			}
			res := ctx.Compare(p,
				solver.Region{Addr: a.Addr, Size: uint64(a.Size)},
				solver.Region{Addr: b.Addr, Size: uint64(b.Size)})
			if res.Alias == solver.Yes && a.Val.Key() != b.Val.Key() {
				ctx.Reportf(v.ID, v.Addr,
					"aliasing regions [%s,%d] and [%s,%d] carry different values %s and %s",
					a.Addr, a.Size, b.Addr, b.Size, a.Val, b.Val)
			}
		}
	}
}
