// Package triple implements Step 2 of the paper: independent verification
// of the extracted Hoare graph. Each vertex yields one theorem — the
// invariant of the vertex, as precondition of the instruction at its
// address, establishes the disjunction of its successors' invariants. The
// theorems are mutually independent and are checked in parallel, each by
// symbolically executing the instruction's formal semantics on the
// precondition and proving entailment of a successor invariant (the
// paper's tailored Isabelle/HOL proof scripts; here a from-scratch checker
// whose only shared trust base with Step 1 is the instruction semantics,
// which are themselves validated against a concrete emulator).
package triple

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/x86"
)

// Verdict classifies one theorem.
type Verdict uint8

// The theorem outcomes.
const (
	Proven  Verdict = iota // all outcomes entail some successor invariant
	Assumed                // the vertex carries an annotation: nothing to prove
	Failed
	// Skipped marks a theorem that was never attempted because the
	// check's context was cancelled first. A skipped theorem blocks
	// AllProven just like a failed one — the report is explicit about
	// being partial, never silently optimistic.
	Skipped
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Proven:
		return "proven"
	case Assumed:
		return "assumed"
	case Skipped:
		return "skipped"
	default:
		return "FAILED"
	}
}

// Theorem is the checking result for one vertex.
type Theorem struct {
	Vertex  hoare.VertexID
	Addr    uint64
	Verdict Verdict
	Reason  string
}

// Report summarises checking one graph.
type Report struct {
	Func     string
	Theorems []Theorem
	Proven   int
	Assumed  int
	Failed   int
	Skipped  int
}

// AllProven reports whether every theorem was proven or explicitly
// assumed. Skipped theorems (a cancelled check) count against it: a
// partial check never claims full verification.
func (r *Report) AllProven() bool { return r.Failed == 0 && r.Skipped == 0 }

// CheckOption tunes a Check run. The zero configuration checks serially
// with no observation.
type CheckOption func(*checkCfg)

type checkCfg struct {
	workers int
	tracer  *obs.Tracer
}

// Workers fans the per-vertex theorems across n pool workers (< 1 = 1).
func Workers(n int) CheckOption {
	return func(c *checkCfg) { c.workers = n }
}

// WithTracer emits one obs.KTheorem event per checked vertex.
func WithTracer(t *obs.Tracer) CheckOption {
	return func(c *checkCfg) { c.tracer = t }
}

// Check re-verifies every vertex of the graph, independently and in
// parallel across the configured number of workers (the theorems are
// mutually independent, so the shared worker pool fans them out
// directly). A failed theorem does not stop the check: each verdict
// stands on its own, and the report names every failure. Cancelling the
// context stops issuing work; vertices not checked in time report Skipped
// with a cancellation reason, so a cancelled report never claims
// AllProven.
//
// The graph's assumption list is the only source of separation
// hypotheses: each worker checks its theorems on one sem.NewCheckMachine
// under that list, so cfg's AssumeBaseSeparation and Facts do not apply in
// Step 2.
func Check(ctx context.Context, img *image.Image, g *hoare.Graph, cfg sem.Config, opts ...CheckOption) *Report {
	cc := checkCfg{workers: 1}
	for _, o := range opts {
		o(&cc)
	}
	if cc.workers < 1 {
		cc.workers = 1
	}
	// Step 1 sorts the list; a loaded file keeps its own order.
	hyps := g.Assumptions
	if !slices.IsSorted(hyps) {
		hyps = slices.Clone(hyps)
		slices.Sort(hyps)
	}
	vertices := g.SortedVertices()
	succs := successors(g)
	rep := &Report{Func: g.FuncName, Theorems: make([]Theorem, len(vertices))}
	machines := make([]*sem.Machine, cc.workers)
	pool.ForEach(cc.workers, len(vertices), func(w, i int) {
		v := vertices[i]
		if err := ctx.Err(); err != nil {
			rep.Theorems[i] = Theorem{Vertex: v.ID, Addr: v.Addr, Verdict: Skipped,
				Reason: fmt.Sprintf("not checked: %v", err)}
		} else {
			if machines[w] == nil {
				machines[w] = sem.NewCheckMachine(img, cfg, hyps)
			}
			rep.Theorems[i] = checkVertex(machines[w], g, v, succs[v.ID])
		}
		th := &rep.Theorems[i]
		cc.tracer.Theorem(g.FuncName, string(th.Vertex), th.Addr, th.Verdict.String())
	})
	for _, th := range rep.Theorems {
		switch th.Verdict {
		case Proven:
			rep.Proven++
		case Assumed:
			rep.Assumed++
		case Skipped:
			rep.Skipped++
		default:
			rep.Failed++
		}
	}
	return rep
}

// succ is one out-neighbour of a vertex: its ID, and its vertex (nil when
// the edge dangles).
type succ struct {
	id hoare.VertexID
	v  *hoare.Vertex
}

// successors lists every vertex's distinct out-neighbours in vertex-ID
// order, once per check. Two successors can share one address (IDs carry
// a code-pointer suffix), so a fixed order is what makes a failure reason
// name the same successor on every run.
func successors(g *hoare.Graph) map[hoare.VertexID][]succ {
	out := map[hoare.VertexID][]succ{}
	for _, e := range g.Edges {
		out[e.From] = append(out[e.From], succ{e.To, g.Vertices[e.To]})
	}
	for from, ss := range out {
		slices.SortFunc(ss, func(a, b succ) int { return cmp.Compare(a.id, b.id) })
		out[from] = slices.CompactFunc(ss, func(a, b succ) bool { return a.id == b.id })
	}
	return out
}

// hasSucc reports whether id is among the successors.
func hasSucc(succs []succ, id hoare.VertexID) bool {
	for _, s := range succs {
		if s.id == id {
			return true
		}
	}
	return false
}

// annotatedAt reports whether the instruction at addr carries an
// unsoundness annotation.
func annotatedAt(g *hoare.Graph, addr uint64) bool {
	for _, a := range g.Annotations {
		if a.Addr == addr {
			return true
		}
	}
	return false
}

// checkVertex proves the one-step-inductive theorem of a single vertex:
// {inv(v)} inst(v) {∨ inv(succ)}. Every shared artefact is recomputed: the
// instruction is re-fetched from the binary's bytes and re-executed by the
// worker's check machine, which assumes the separations the graph lists and
// no others. Step and CleanAfterCall reset the machine's per-instruction
// state, so the theorems a machine checks stay independent; the outcome
// states die with the theorem and go back to the machine for the next one.
func checkVertex(m *sem.Machine, g *hoare.Graph, v *hoare.Vertex, succs []succ) Theorem {
	th := Theorem{Vertex: v.ID, Addr: v.Addr}
	if v.ID == hoare.ExitID || v.ID == hoare.HaltID {
		th.Verdict = Proven
		th.Reason = "terminal vertex"
		return th
	}
	inst, err := m.Img.Fetch(v.Addr)
	if err != nil {
		th.Verdict = Failed
		th.Reason = fmt.Sprintf("re-fetch: %v", err)
		return th
	}

	outs, err := m.Step(v.State, inst)
	if err != nil {
		th.Verdict = Failed
		th.Reason = fmt.Sprintf("re-execution: %v", err)
		return th
	}

	th.Verdict = Proven
	for _, o := range outs {
		ok, reason := outcomeEntailsSuccessor(g, m, inst.Addr, inst.Next(), o, succs)
		if !ok {
			if annotatedAt(g, v.Addr) {
				th.Verdict = Assumed
				th.Reason = "annotated: " + reason
			} else {
				th.Verdict = Failed
				th.Reason = reason
			}
			break
		}
	}
	for _, o := range outs {
		m.Recycle(o.State)
	}
	return th
}

// outcomeEntailsSuccessor finds a successor vertex whose invariant is
// entailed by the outcome's post-state.
func outcomeEntailsSuccessor(g *hoare.Graph, m *sem.Machine, addr, next uint64, o sem.Outcome, succs []succ) (bool, string) {
	switch o.Kind {
	case sem.KHalt:
		if hasSucc(succs, hoare.HaltID) {
			return true, ""
		}
		return false, "halt outcome without halt successor"
	case sem.KRet:
		chk := sem.CheckReturn(o, g.RetSym)
		if !chk.OK {
			return false, fmt.Sprintf("return check: %v", chk.Reasons)
		}
		if hasSucc(succs, hoare.ExitID) {
			return true, ""
		}
		return false, "ret outcome without exit successor"
	case sem.KCall:
		// A call edge's postcondition is the ABI-cleaned continuation —
		// or a terminal edge when the callee never returns.
		post := m.CleanAfterCall(o.State, addr)
		defer m.Recycle(post)
		for _, s := range succs {
			if s.id == hoare.HaltID {
				return true, "" // callee proven non-returning in Step 1
			}
			if s.v != nil && s.v.Addr == next && entails(post, s.v.State) {
				return true, ""
			}
		}
		return false, "call continuation entails no successor invariant"
	default: // KFall, KJump
		tgt, ok := o.Resolved()
		if !ok {
			return false, fmt.Sprintf("unbounded control flow: rip = %v", o.Target)
		}
		var why string
		for _, s := range succs {
			if s.v == nil || s.id == hoare.ExitID || s.id == hoare.HaltID {
				continue
			}
			if s.v.Addr == tgt {
				ok, reason := entailsWhy(o.State, s.v.State)
				if ok {
					return true, ""
				}
				why = reason
			}
		}
		return false, fmt.Sprintf("no successor invariant at %#x is entailed: %s", tgt, why)
	}
}

// entails reports post ⊨ inv: every clause of the invariant holds in every
// concrete state satisfying the post-state. Equality clauses on join
// variables are interval constraints ("∃v ∈ [lo,hi]. part = v"), so they
// are discharged by interval inclusion; join variables shared between
// several parts additionally require the post values to coincide. Memory
// model entailment is relation-set inclusion (the invariant's model is the
// weaker one: it encodes fewer relations).
func entails(post, inv *sem.State) bool {
	ok, _ := entailsWhy(post, inv)
	return ok
}

// entailsWhy is entails with a failure explanation.
func entailsWhy(post, inv *sem.State) (bool, string) {
	if inv == nil {
		return false, "no invariant"
	}
	if ok, why := entailsPred(post.Pred, inv.Pred); !ok {
		return false, why
	}
	// Every relation asserted by the invariant's memory model must be
	// encoded by the post-state's model — or hold geometrically in every
	// state (same-base constant offsets). Forests with the same trees in
	// the same order assert the same relations, so they need no walk.
	if memmodel.SameOrdered(post.Mem, inv.Mem) {
		return true, ""
	}
	postRels := post.Mem.RelationSet()
	for _, rel := range inv.Mem.Relations() {
		if postRels.Has(rel) || memmodel.GeometricallyNecessary(rel) {
			continue
		}
		return false, fmt.Sprintf("memory relation %q not established", rel.String())
	}
	return true, ""
}

// valueEntails checks one equality clause: the invariant asserts
// part = want; the post-state provides part = got.
func valueEntails(post, inv *pred.Pred, got, want *expr.Expr) bool {
	if got == nil {
		return false
	}
	if got.Equal(want) {
		return true
	}
	if want.Kind() != expr.KindVar {
		return false
	}
	// An equality with a variable is an interval constraint (or no
	// constraint at all if the variable is unbounded).
	wr, ok := inv.RangeOf(want)
	if !ok || (wr.Lo == 0 && wr.Hi == ^uint64(0)) {
		return true
	}
	gr, ok := post.RangeOf(got)
	return ok && gr.Lo >= wr.Lo && gr.Hi <= wr.Hi
}

// entailsPred checks the predicate clauses.
func entailsPred(post, inv *pred.Pred) (bool, string) {
	if post.IsBot() {
		return true, ""
	}
	if inv.IsBot() {
		return false, "invariant is unsatisfiable"
	}
	// Shared join variables encode correlations between parts: collect
	// the post value assigned at each use of an invariant variable and
	// require the values of one variable to coincide. The checks of
	// CoreUtilsSuite(1.0) record at most 28 uses (99th percentile 25), so
	// the uses go into a slice on the stack and are compared pairwise.
	var useBuf [32]varUse
	varUses := useBuf[:0]
	record := func(got, want *expr.Expr) {
		if want != nil && want.Kind() == expr.KindVar && got != nil {
			varUses = append(varUses, varUse{want, got})
		}
	}

	for _, r := range x86.GPRs {
		want := inv.Reg(r)
		if want == nil {
			continue
		}
		got := post.Reg(r)
		if !valueEntails(post, inv, got, want) {
			return false, fmt.Sprintf("register %s: post %v does not entail %v", r, got, want)
		}
		record(got, want)
	}
	ok := true
	why := ""
	inv.MemEntries(func(e pred.MemEntry) {
		if !ok {
			return
		}
		got, found := post.ReadMem(e.Addr, e.Size)
		if !found || !valueEntails(post, inv, got, e.Val) {
			ok = false
			why = fmt.Sprintf("memory [%s,%d]: post %v does not entail %v", e.Addr, e.Size, got, e.Val)
			return
		}
		record(got, e.Val)
	})
	if !ok {
		return false, why
	}
	if !usesAgree(varUses) {
		return false, "correlated join variable with diverging post values"
	}
	// Flags.
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		want := inv.Flag(f)
		if want == nil {
			continue
		}
		got := post.Flag(f)
		if got == nil || !got.Equal(want) {
			return false, fmt.Sprintf("flag %s: post %v does not entail %v", f, got, want)
		}
	}
	if !cmpEntails(post, inv) {
		return false, "flag comparison descriptor not entailed"
	}
	return true, ""
}

// varUse is one use of an invariant join variable and the post value
// found there.
type varUse struct{ v, got *expr.Expr }

// usesAgree reports whether every use of each join variable found the
// same post value as the variable's first use.
func usesAgree(uses []varUse) bool {
	for i, u := range uses {
		for _, first := range uses[:i] {
			if first.v == u.v {
				if !u.got.Equal(first.got) {
					return false
				}
				break
			}
		}
	}
	return true
}

// cmpEntails checks the flag-defining comparison descriptor: absent in the
// invariant is trivially implied; present, it must match the post's
// descriptor directly or through the register both express.
func cmpEntails(post, inv *pred.Pred) bool {
	ic := inv.LastCmp()
	if ic == nil {
		return true
	}
	pc := post.LastCmp()
	if pc == nil || pc.Kind != ic.Kind || pc.Size != ic.Size || !pc.Rhs.Equal(ic.Rhs) {
		return false
	}
	if pc.Lhs.Equal(ic.Lhs) {
		return true
	}
	for _, r := range x86.GPRs {
		iv, pv := inv.Reg(r), post.Reg(r)
		if iv == nil || pv == nil {
			continue
		}
		if ic.Lhs.Equal(expr.ZExt(iv, ic.Size)) && pc.Lhs.Equal(expr.ZExt(pv, pc.Size)) {
			return true
		}
	}
	return false
}

// Sorted returns the theorems ordered by address.
func (r *Report) Sorted() []Theorem {
	out := append([]Theorem(nil), r.Theorems...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out
}
