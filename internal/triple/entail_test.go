package triple

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/x86"
)

// memState is a state with no predicate clauses and the given forest.
func memState(f memmodel.Forest) *sem.State { return &sem.State{Pred: pred.New(), Mem: f} }

func leaf(addr *expr.Expr, size uint64) *memmodel.Tree {
	return memmodel.Leaf(memmodel.NewRegion(addr, size))
}

// TestEntailsMemoryRelations drives the memory-model half of entailment
// through its three outcomes: a relation the post-state lacks fails with
// the relation named, a permuted forest is not the same forest but
// asserts the same relations, and a missing relation that holds in every
// state is discharged geometrically.
func TestEntailsMemoryRelations(t *testing.T) {
	rdi, rsi := expr.V("rdi0"), expr.V("rsi0")
	slot := func(off int64) *expr.Expr { return expr.Add(expr.V("rsp0"), expr.Word(uint64(off))) }

	t.Run("missing", func(t *testing.T) {
		inv := memState(memmodel.Forest{leaf(rdi, 8), leaf(rsi, 8)})
		post := memState(memmodel.Forest{{Regions: []solver.Region{
			memmodel.NewRegion(rdi, 8), memmodel.NewRegion(rsi, 8)}}})
		ok, why := entailsWhy(post, inv)
		if want := `memory relation "rdi0#8 ⋈ rsi0#8" not established`; ok || why != want {
			t.Fatalf("entailsWhy = %v, %q; want false, %q", ok, why, want)
		}
	})

	t.Run("permuted", func(t *testing.T) {
		parent := &memmodel.Tree{
			Regions: []solver.Region{memmodel.NewRegion(rdi, 8)},
			Kids:    memmodel.Forest{leaf(rdi, 4), leaf(expr.Add(rdi, expr.Word(4)), 4)},
		}
		inv := memState(memmodel.Forest{parent, leaf(rsi, 8), leaf(slot(-8), 8)})
		post := memState(memmodel.Forest{leaf(slot(-8), 8), leaf(rsi, 8),
			{Regions: parent.Regions, Kids: memmodel.Forest{parent.Kids[1], parent.Kids[0]}}})
		if memmodel.SameOrdered(post.Mem, inv.Mem) {
			t.Fatal("a permuted forest must not take the same-forest shortcut")
		}
		if ok, why := entailsWhy(post, inv); !ok {
			t.Fatalf("permuted forest not entailed: %s", why)
		}
	})

	t.Run("geometric", func(t *testing.T) {
		inv := memState(memmodel.Forest{leaf(slot(-8), 8), leaf(slot(-16), 8)})
		post := memState(memmodel.Forest{leaf(slot(-8), 8)})
		missing := inv.Mem.Relations()
		if len(missing) != 1 || post.Mem.RelationSet().Has(missing[0]) {
			t.Fatalf("the post-state should lack the invariant's one relation: %v", missing)
		}
		if ok, why := entailsWhy(post, inv); !ok {
			t.Fatalf("separation of two stack slots not discharged: %s", why)
		}
	})
}

// TestEntailsCorrelatedJoinVariable: a join variable the invariant uses
// in several parts correlates them, so the post values at its uses must
// coincide; a variable used once constrains nothing.
func TestEntailsCorrelatedJoinVariable(t *testing.T) {
	v, w := expr.V("j_corr_v"), expr.V("j_corr_w")
	slot := expr.Add(expr.V("rsp0"), expr.Word(^uint64(0)-7))
	inv := pred.New()
	inv.SetReg(x86.RAX, v)
	inv.SetReg(x86.RBX, w)
	inv.SetReg(x86.RCX, v)
	inv.WriteMem(slot, 8, v)
	post := func(rax, rbx, rcx, mem uint64) *pred.Pred {
		p := pred.New()
		p.SetReg(x86.RAX, expr.Word(rax))
		p.SetReg(x86.RBX, expr.Word(rbx))
		p.SetReg(x86.RCX, expr.Word(rcx))
		p.WriteMem(slot, 8, expr.Word(mem))
		return p
	}
	if ok, why := entailsPred(post(1, 2, 1, 1), inv); !ok {
		t.Fatalf("agreeing uses not entailed: %s", why)
	}
	const diverging = "correlated join variable with diverging post values"
	for _, p := range []*pred.Pred{post(1, 2, 3, 1), post(1, 2, 1, 3)} {
		if ok, why := entailsPred(p, inv); ok || why != diverging {
			t.Fatalf("entailsPred = %v, %q; want false, %q", ok, why, diverging)
		}
	}
}

// TestEntailsPredAllocatesNothing: the join-variable uses of a check fit
// the stack buffer entailsPred keeps them in. The invariant has 24 uses,
// the 99th percentile of the checks of CoreUtilsSuite(1.0) (whose largest
// has 28): every general-purpose register and eight stack slots, pairs of
// them correlated by one join variable. Checking it allocates nothing.
func TestEntailsPredAllocatesNothing(t *testing.T) {
	inv, post := pred.New(), pred.New()
	for i, r := range x86.GPRs {
		inv.SetReg(r, expr.V(expr.Var(fmt.Sprintf("j_alloc_%d", i/2))))
		post.SetReg(r, expr.Word(uint64(i/2)))
	}
	for i := 0; i < 8; i++ {
		slot := expr.Add(expr.V("rsp0"), expr.Word(uint64(-8*(i+1))))
		inv.WriteMem(slot, 8, expr.V(expr.Var(fmt.Sprintf("j_alloc_%d", i))))
		post.WriteMem(slot, 8, expr.Word(uint64(i)))
	}
	if ok, why := entailsPred(post, inv); !ok {
		t.Fatalf("agreeing uses not entailed: %s", why)
	}
	if n := testing.AllocsPerRun(100, func() { entailsPred(post, inv) }); n != 0 {
		t.Fatalf("entailsPred: %v allocs per check, want 0", n)
	}
}

// regionString renders a region as "addrKey#size".
func regionString(r solver.Region) string { return fmt.Sprintf("%s#%d", r.Addr.Key(), r.Size) }

// relationStrings renders R(M) with strings, in the order and the
// canonical form of Step 2's failure reasons: node aliases, enclosures,
// sibling separations, then the children's; ≡ and ⋈ with their operands
// in key order.
func relationStrings(f memmodel.Forest) []string {
	sym := func(a, b solver.Region, op string) string {
		ka, kb := regionString(a), regionString(b)
		if ka > kb {
			ka, kb = kb, ka
		}
		return ka + " " + op + " " + kb
	}
	var out []string
	var walk func(f memmodel.Forest)
	walk = func(f memmodel.Forest) {
		for i, t := range f {
			for a := range t.Regions {
				for b := a + 1; b < len(t.Regions); b++ {
					out = append(out, sym(t.Regions[a], t.Regions[b], "≡"))
				}
			}
			for _, kid := range t.Kids.AllRegions(nil) {
				for _, top := range t.Regions {
					out = append(out, regionString(kid)+" ⪯ "+regionString(top))
				}
			}
			for _, u := range f[i+1:] {
				for _, a := range t.Kids.AllRegions(slices.Clone(t.Regions)) {
					for _, b := range u.Kids.AllRegions(slices.Clone(u.Regions)) {
						out = append(out, sym(a, b, "⋈"))
					}
				}
			}
			walk(t.Kids)
		}
	}
	walk(f)
	return out
}

// TestRelationValuesMatchStrings pins R(M) as values against a string
// rendering over every vertex forest of CoreUtilsSuite(0.17) and of the
// corpus scenarios, plus nested forests the corpora do not produce:
// Relations renders to the same list, in order, and RelationSet has
// exactly the members and the size of the rendered set.
func TestRelationValuesMatchStrings(t *testing.T) {
	var graphs []*hoare.Graph
	cus, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	for _, cu := range cus {
		for _, fr := range core.New(cu.Image, core.DefaultConfig()).LiftBinaryCtx(context.Background(), cu.Name).Funcs {
			graphs = append(graphs, fr.Graph)
		}
	}
	scens, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		graphs = append(graphs, core.New(s.Image, core.DefaultConfig()).LiftFuncCtx(context.Background(), s.FuncAddr, s.Name).Graph)
	}
	rdi, rsi := memmodel.NewRegion(expr.V("rdi0"), 8), memmodel.NewRegion(expr.V("rsi0"), 8)
	nested := &memmodel.Tree{
		Regions: []solver.Region{rdi, rsi},
		Kids: memmodel.Forest{
			{Regions: []solver.Region{memmodel.NewRegion(expr.V("rdi0"), 4)}, Kids: memmodel.Forest{leaf(expr.V("rdi0"), 2)}},
			leaf(expr.Add(expr.V("rdi0"), expr.Word(4)), 4),
		},
	}
	forests := []memmodel.Forest{{nested}, {leaf(expr.V("rdx0"), 8), nested, leaf(expr.V("rcx0"), 8)}}
	for _, g := range graphs {
		if g == nil {
			continue
		}
		for _, v := range g.SortedVertices() {
			if v.State != nil {
				forests = append(forests, v.State.Mem)
			}
		}
	}
	ops := map[memmodel.RelOp]int{}
	for i, f := range forests {
		want := relationStrings(f)
		var got []string
		for _, r := range f.Relations() {
			got = append(got, r.String())
			ops[r.Op]++
		}
		if !slices.Equal(got, want) {
			t.Fatalf("forest %d %v: Relations renders as\n%q\nwant\n%q", i, f, got, want)
		}
		wantSet := map[string]bool{}
		for _, s := range want {
			wantSet[s] = true
		}
		set := f.RelationSet()
		rendered := map[string]bool{}
		for r := range set {
			rendered[r.String()] = true
			if !wantSet[r.String()] {
				t.Fatalf("forest %d %v: RelationSet holds %s, which the forest does not assert", i, f, r)
			}
		}
		if len(set) != len(wantSet) || len(rendered) != len(set) {
			t.Fatalf("forest %d %v: RelationSet has %d members rendering to %d strings, want %d",
				i, f, len(set), len(rendered), len(wantSet))
		}
	}
	for _, op := range []memmodel.RelOp{memmodel.OpAlias, memmodel.OpSeparate, memmodel.OpEnclosed} {
		if ops[op] == 0 {
			t.Errorf("no forest asserts a %s relation", op)
		}
	}
}

// TestFailureReasonDeterministic gives a vertex two failing successors at
// one address. Which one the failure reason names must not depend on map
// iteration order: twenty checks give the same reason.
func TestFailureReasonDeterministic(t *testing.T) {
	im, r := buildAndLift(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(1, 4))
		a.I(x86.RET)
	}, nil)
	if r.Status != core.StatusLifted {
		t.Fatal(r.Status)
	}
	g := r.Graph
	var edge *hoare.Edge
	for i := range g.Edges {
		if g.Edges[i].From == g.EntryID {
			edge = &g.Edges[i]
		}
	}
	if edge == nil {
		t.Fatal("entry vertex has no out-edge")
	}
	// Replace the entry's successor with two copies at the same address
	// whose invariants claim different, wrong values of rax.
	s := g.Vertices[edge.To]
	var added []hoare.Edge
	for i, suffix := range []string{"a", "b"} {
		c := &hoare.Vertex{ID: s.ID + hoare.VertexID("/"+suffix), Addr: s.Addr, State: s.State.Clone()}
		c.State.Pred.SetReg(x86.RAX, expr.Word(uint64(6+i)))
		g.Vertices[c.ID] = c
		e := *edge
		e.To = c.ID
		added = append(added, e)
	}
	*edge = added[0]
	g.Edges = append(g.Edges, added[1])

	var reason string
	for i := 0; i < 20; i++ {
		rep := Check(context.Background(), im, g, sem.DefaultConfig(), Workers(1))
		for _, th := range rep.Theorems {
			if th.Vertex != g.EntryID {
				continue
			}
			if th.Verdict != Failed {
				t.Fatalf("entry theorem: %s, want FAILED", th.Verdict)
			}
			if i == 0 {
				reason = th.Reason
			} else if th.Reason != reason {
				t.Fatalf("check %d: reason %q, first check gave %q", i, th.Reason, reason)
			}
		}
	}
	if reason == "" {
		t.Fatal("no reason for the entry theorem")
	}
}
