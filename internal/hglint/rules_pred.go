// Predicate rules: the invariants must carry the clauses the sanity
// properties rest on, in canonical form. Return-address integrity is
// witnessed by the equality clause ∗[…] = a_r (the symbolic return
// address) on every vertex that can still reach exit — without it the
// Step-2 theorem for the returning vertex cannot be proven. Bounded
// control flow is witnessed per indirect transfer: either its target set
// was resolved or the graph says so with an unsoundness annotation.

package hglint

import (
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/pred"
)

func init() {
	Register(Rule{
		Name:     "pred-range-inverted",
		Severity: SevError,
		Doc:      "no interval clause has lo > hi",
		Check:    perVertexModel(checkRangeInverted),
	})
	Register(Rule{
		Name:     "pred-range-vacuous",
		Severity: SevWarn,
		Doc:      "no interval clause spans the full 64-bit domain",
		Check:    perVertexModel(checkRangeVacuous),
	})
	Register(Rule{
		Name:     "pred-noncanonical",
		Severity: SevError,
		Doc:      "clauses are in canonical form (no interval on a constant, no empty memory region)",
		Check:    perVertexModel(checkNoncanonical),
	})
	Register(Rule{
		Name:     "pred-bot",
		Severity: SevWarn,
		Doc:      "no vertex invariant is ⊥ (an unsatisfiable invariant marks dead exploration)",
		Check:    perVertexModel(checkBot),
	})
	Register(Rule{
		Name:     "hg-ret-integrity",
		Severity: SevError,
		Doc:      "every vertex that can reach exit carries the return-address clause ∗[…] = a_r",
		Check:    checkRetIntegrity,
	})
	Register(Rule{
		Name:     "hg-unbounded-jump",
		Severity: SevError,
		Doc:      "every indirect control transfer is resolved or carries an unsoundness annotation",
		Check:    checkUnboundedJump,
	})
}

func checkRangeInverted(ctx *Ctx, v *hoare.Vertex) {
	v.State.Pred.Ranges(func(e *expr.Expr, r pred.Range) {
		if r.Lo > r.Hi {
			ctx.Reportf(v.ID, v.Addr, "interval clause on %s is inverted: %#x > %#x", e, r.Lo, r.Hi)
		}
	})
}

func checkRangeVacuous(ctx *Ctx, v *hoare.Vertex) {
	v.State.Pred.Ranges(func(e *expr.Expr, r pred.Range) {
		if r.Lo == 0 && r.Hi == ^uint64(0) {
			ctx.Reportf(v.ID, v.Addr, "interval clause on %s is vacuous (full domain)", e)
		}
	})
}

// checkNoncanonical flags clause shapes pred's own constructors never
// produce: an interval on a constant word (AddRange folds those into ⊥ or
// drops them) and a memory clause over an empty region. A graph carrying
// one was built or deserialized outside the canonical path.
func checkNoncanonical(ctx *Ctx, v *hoare.Vertex) {
	v.State.Pred.Ranges(func(e *expr.Expr, r pred.Range) {
		if _, ok := e.AsWord(); ok {
			ctx.Reportf(v.ID, v.Addr, "interval clause on constant %s is non-canonical", e)
		}
	})
	v.State.Pred.MemEntries(func(m pred.MemEntry) {
		if m.Size < 1 {
			ctx.Reportf(v.ID, v.Addr, "memory clause on [%s,%d] has a non-positive size", m.Addr, m.Size)
		}
	})
}

func checkBot(ctx *Ctx, v *hoare.Vertex) {
	if v.State.Pred.IsBot() {
		ctx.Reportf(v.ID, v.Addr, "vertex invariant is ⊥")
	}
}

// checkRetIntegrity requires, on every non-terminal vertex from which
// exit is reachable, some memory-equality clause whose value is the
// symbolic return address a_r. That clause is what CheckReturn consumes
// when the path's ret finally pops the stack; losing it anywhere on the
// way makes return-address integrity unprovable.
func checkRetIntegrity(ctx *Ctx) {
	g := ctx.Graph
	if g.RetSym == "" {
		return
	}
	want := expr.V(g.RetSym).Key()
	reachesExit := ctx.ReachesExit()
	for _, v := range ctx.Vertices() {
		if isTerminal(v.ID) || v.State == nil || !reachesExit[v.ID] {
			continue
		}
		found := false
		v.State.Pred.MemEntries(func(m pred.MemEntry) {
			if m.Val.Key() == want {
				found = true
			}
		})
		if !found {
			ctx.Reportf(v.ID, v.Addr,
				"vertex reaches exit but carries no return-address clause ∗[…] = %s", g.RetSym)
		}
	}
}

// checkUnboundedJump enforces bounded control flow per instruction:
// every indirect jmp/call in the recovered disassembly either had its
// target set bounded (an edge leaves it, see hoare.Graph.Indirections) or
// the graph admits the unsoundness with an annotation at that address.
func checkUnboundedJump(ctx *Ctx) {
	g := ctx.Graph
	annotated := map[uint64]bool{}
	for _, a := range g.Annotations {
		annotated[a.Addr] = true
	}
	for a, resolved := range g.Indirections() {
		if !resolved && !annotated[a] {
			ctx.Reportf("", a, "indirect %s @%#x is neither resolved nor annotated", g.Instrs[a].Mn, a)
		}
	}
}
