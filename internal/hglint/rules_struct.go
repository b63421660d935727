// Structural rules: the graph-shape half of Definition 3.2. A Hoare graph
// is a transition system, so every edge must connect existing vertices,
// the initial state must exist and reach its vertices, terminal vertices
// must be terminal, and every non-terminal vertex must either continue or
// carry an unsoundness annotation explaining why exploration stopped.

package hglint

import (
	"repro/internal/hoare"
	"repro/internal/sem"
)

func init() {
	Register(Rule{
		Name:     "hg-entry",
		Severity: SevError,
		Doc:      "the entry vertex σI exists in the vertex set",
		Check:    checkEntry,
	})
	Register(Rule{
		Name:     "hg-dangling-edge",
		Severity: SevError,
		Doc:      "every edge's From and To name existing vertices",
		Check:    checkDanglingEdges,
	})
	Register(Rule{
		Name:     "hg-terminal-out-edge",
		Severity: SevError,
		Doc:      "the terminal vertices exit/halt have no out-edges",
		Check:    checkTerminalOutEdges,
	})
	Register(Rule{
		Name:     "hg-call-callee",
		Severity: SevError,
		Doc:      "call edges carry a callee name",
		Check:    checkCallCallee,
	})
	Register(Rule{
		Name:     "hg-edge-inst",
		Severity: SevError,
		Doc:      "edge instructions are recorded in the disassembly and match their source vertex",
		Check:    checkEdgeInst,
	})
	Register(Rule{
		Name:     "hg-no-successor",
		Severity: SevError,
		Doc:      "every non-terminal vertex has an out-edge or an unsoundness annotation",
		Check:    checkNoSuccessor,
	})
	Register(Rule{
		Name:     "hg-unreachable",
		Severity: SevWarn,
		Doc:      "every non-terminal vertex is reachable from the entry vertex",
		Check:    checkUnreachable,
	})
}

func checkEntry(ctx *Ctx) {
	g := ctx.Graph
	if g.EntryID == "" {
		ctx.Reportf("", g.FuncAddr, "graph has no entry vertex ID")
		return
	}
	if _, ok := g.Vertices[g.EntryID]; !ok {
		ctx.Reportf(g.EntryID, g.FuncAddr, "entry vertex %q is not in the vertex set", g.EntryID)
	}
}

func checkDanglingEdges(ctx *Ctx) {
	g := ctx.Graph
	for _, e := range ctx.Edges() {
		if _, ok := g.Vertices[e.From]; !ok {
			ctx.Reportf(e.From, e.Addr, "edge %s -> %s leaves a vertex that does not exist", e.From, e.To)
		}
		if _, ok := g.Vertices[e.To]; !ok {
			ctx.Reportf(e.To, e.Addr, "edge %s -> %s ends at a vertex that does not exist", e.From, e.To)
		}
	}
}

func checkTerminalOutEdges(ctx *Ctx) {
	for _, e := range ctx.Edges() {
		if e.From == hoare.ExitID || e.From == hoare.HaltID {
			ctx.Reportf(e.From, e.Addr, "terminal vertex %s has an out-edge to %s", e.From, e.To)
		}
	}
}

func checkCallCallee(ctx *Ctx) {
	for _, e := range ctx.Edges() {
		if e.Kind == sem.KCall && e.Callee == "" {
			ctx.Reportf(e.From, e.Addr, "call edge %s -> %s has no callee name", e.From, e.To)
		}
	}
}

func checkEdgeInst(ctx *Ctx) {
	g := ctx.Graph
	for _, e := range ctx.Edges() {
		if _, ok := g.Instrs[e.Addr]; !ok {
			ctx.Reportf(e.From, e.Addr, "edge instruction @%#x is not in the recovered disassembly", e.Addr)
		}
		if v, ok := g.Vertices[e.From]; ok && !isTerminal(e.From) && v.Addr != e.Addr {
			ctx.Reportf(e.From, e.Addr,
				"edge instruction @%#x does not match its source vertex address %#x", e.Addr, v.Addr)
		}
	}
}

// checkNoSuccessor enforces the progress half of overapproximation: a
// non-terminal vertex with no out-edge means exploration silently dropped
// a path. That is sound only when annotated (Line 13 of Algorithm 1).
func checkNoSuccessor(ctx *Ctx) {
	g := ctx.Graph
	annotated := map[uint64]bool{}
	for _, a := range g.Annotations {
		annotated[a.Addr] = true
	}
	succs := ctx.successors()
	for _, v := range ctx.Vertices() {
		if isTerminal(v.ID) {
			continue
		}
		if len(succs[v.ID]) == 0 && !annotated[v.Addr] {
			ctx.Reportf(v.ID, v.Addr, "non-terminal vertex has no out-edge and no unsoundness annotation")
		}
	}
}

func checkUnreachable(ctx *Ctx) {
	reach := ctx.Reachable()
	for _, v := range ctx.Vertices() {
		// exit/halt are created eagerly and may legitimately be isolated
		// (e.g. a function that never returns leaves exit unreachable).
		if isTerminal(v.ID) {
			continue
		}
		if !reach[v.ID] {
			ctx.Reportf(v.ID, v.Addr, "vertex is unreachable from the entry vertex")
		}
	}
}

func isTerminal(id hoare.VertexID) bool {
	return id == hoare.ExitID || id == hoare.HaltID
}
