package memmodel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/solver"
)

// predOracle adapts the solver over a predicate to the Oracle interface.
type predOracle struct{ p *pred.Pred }

func (o predOracle) Compare(r0, r1 solver.Region) solver.Result {
	return solver.Compare(o.p, r0, r1)
}

func topOracle() Oracle { return predOracle{pred.New()} }

func rsp(off int64) *expr.Expr {
	return expr.Add(expr.V("rsp0"), expr.Word(uint64(off)))
}

func reg(e *expr.Expr, size uint64) solver.Region { return solver.Region{Addr: e, Size: size} }

func TestInsEmpty(t *testing.T) {
	r := reg(rsp(-8), 8)
	res := Ins(r, nil, topOracle(), DefaultConfig())
	if len(res) != 1 || res[0].Forest.NumRegions() != 1 {
		t.Fatalf("insert into empty: %v", res)
	}
	if !res[0].Forest.HasRegion(r) {
		t.Fatal("region missing")
	}
}

func TestInsSeparateStackSlots(t *testing.T) {
	cfg := DefaultConfig()
	o := topOracle()
	var f Forest
	for _, off := range []int64{-8, -16, -24} {
		res := Ins(reg(rsp(off), 8), f, o, cfg)
		if len(res) != 1 {
			t.Fatalf("stack slot insert must be deterministic, got %d models", len(res))
		}
		f = res[0].Forest
	}
	if len(f) != 3 || f.NumRegions() != 3 {
		t.Fatalf("three separate siblings expected: %v", f)
	}
	// Relations of the last insert: others separate.
	res := Ins(reg(rsp(-24), 8), f, o, cfg)
	if len(res) != 1 {
		t.Fatal("re-insert of present region must be deterministic")
	}
	for _, off := range []int64{-8, -16} {
		if v := res[0].Rel(IDOf(reg(rsp(off), 8))); v != RelSeparate {
			t.Errorf("slot rsp0%d relation %v", off, v)
		}
	}
	if res[0].Destroyed {
		t.Error("re-insert of a present region destroys nothing")
	}
}

func TestInsAlias(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	f := Forest{Leaf(reg(rsp(-8), 8))}
	// Same region, different syntactic address with same canonical form.
	res := Ins(reg(expr.Sub(expr.V("rsp0"), expr.Word(8)), 8), f, o, cfg)
	if len(res) != 1 {
		t.Fatalf("alias insert: %d models", len(res))
	}
	if res[0].Forest.NumRegions() != 1 {
		t.Fatalf("alias must not add a region: %v", res[0].Forest)
	}
}

func TestInsEnclosure(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	f := Forest{Leaf(reg(rsp(-16), 8))}
	res := Ins(reg(rsp(-12), 4), f, o, cfg)
	if len(res) != 1 {
		t.Fatalf("enclosed insert: %d models", len(res))
	}
	nf := res[0].Forest
	if len(nf) != 1 || len(nf[0].Kids) != 1 {
		t.Fatalf("expected child: %v", nf)
	}
	if v := res[0].Rel(IDOf(reg(rsp(-16), 8))); v != RelEnclosedIn {
		t.Fatalf("parent relation: %v", v)
	}
	// The converse: inserting the big region into a model with the small one.
	f2 := Forest{Leaf(reg(rsp(-12), 4))}
	res2 := Ins(reg(rsp(-16), 8), f2, o, cfg)
	if len(res2) != 1 {
		t.Fatalf("encloses insert: %d models", len(res2))
	}
	nf2 := res2[0].Forest
	if len(nf2) != 1 || len(nf2[0].Kids) != 1 {
		t.Fatalf("expected containment: %v", nf2)
	}
	if v := res2[0].Rel(IDOf(reg(rsp(-12), 4))); v != RelEncloses {
		t.Fatalf("child relation: %v", v)
	}
}

// TestInsForkUnknownAlias reproduces the Section 2 situation: two same-size
// regions with unknown bases fork into an aliasing and a separate model.
func TestInsForkUnknownAlias(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	f := Forest{Leaf(reg(expr.V("rdi0"), 4))}
	res := Ins(reg(expr.V("rsi0"), 4), f, o, cfg)
	if len(res) != 2 {
		t.Fatalf("unknown same-size relation must fork into 2 models, got %d", len(res))
	}
	var sawAlias, sawSep bool
	for _, r := range res {
		switch r.Rel(IDOf(reg(expr.V("rdi0"), 4))) {
		case RelAlias:
			sawAlias = true
			if r.Forest.NumRegions() != 2 || len(r.Forest) != 1 {
				t.Fatalf("alias model shape: %v", r.Forest)
			}
		case RelSeparate:
			sawSep = true
			if len(r.Forest) != 2 {
				t.Fatalf("separate model shape: %v", r.Forest)
			}
		}
	}
	if !sawAlias || !sawSep {
		t.Fatalf("fork must cover alias and separate")
	}
}

// TestExample38 replays Example 3.8 / Figure 2: the three stores produce
// models including the two of Figure 2.
func TestExample38(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	rdi := reg(expr.V("rdi0"), 8)
	rsi4 := reg(expr.Add(expr.V("rsi0"), expr.Word(4)), 4)
	rsi := reg(expr.V("rsi0"), 8)

	models := []Forest{nil}
	insert := func(r solver.Region) {
		var next []Forest
		seen := map[string]bool{}
		for _, m := range models {
			for _, res := range Ins(r, m, o, cfg) {
				k := res.Forest.Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, res.Forest)
				}
			}
		}
		models = next
	}
	insert(rdi)
	insert(rsi4)
	insert(rsi)

	// Figure 2a: one tree, node {rdi0, rsi0}, child [rsi0+4,4].
	var saw2a, saw2b bool
	for _, m := range models {
		rels := m.RelationSet()
		aliasTop := rels.Has(Relation{A: IDOf(rdi), B: IDOf(rsi), Op: OpAlias})
		childIn := rels.Has(Relation{A: IDOf(rsi4), B: IDOf(rsi), Op: OpEnclosed})
		sepTop := rels.Has(Relation{A: IDOf(rdi), B: IDOf(rsi), Op: OpSeparate})
		if aliasTop && childIn {
			saw2a = true
		}
		if sepTop && childIn {
			saw2b = true
		}
	}
	if !saw2a {
		t.Errorf("Figure 2a model not produced; models: %v", models)
	}
	if !saw2b {
		t.Errorf("Figure 2b model not produced; models: %v", models)
	}
	if len(models) > 6 {
		t.Errorf("state explosion: %d models", len(models))
	}
}

// TestRelationSet pins R(M) as values: the walk's order, the symmetric
// lookup of ≡ and ⋈ (but not ⪯), and the canonical rendering.
func TestRelationSet(t *testing.T) {
	a, b := reg(expr.V("rdi0"), 8), reg(expr.V("rsi0"), 8)
	c, d := reg(expr.V("rdi0"), 4), reg(rsp(-8), 8)
	f := Forest{{Regions: []solver.Region{a, b}, Kids: Forest{Leaf(c)}}, Leaf(d)}
	want := []Relation{
		{A: IDOf(a), B: IDOf(b), Op: OpAlias},
		{A: IDOf(c), B: IDOf(a), Op: OpEnclosed},
		{A: IDOf(c), B: IDOf(b), Op: OpEnclosed},
		{A: IDOf(a), B: IDOf(d), Op: OpSeparate},
		{A: IDOf(b), B: IDOf(d), Op: OpSeparate},
		{A: IDOf(c), B: IDOf(d), Op: OpSeparate},
	}
	if got := f.Relations(); !slices.Equal(got, want) {
		t.Fatalf("Relations() = %v, want %v", got, want)
	}
	set := f.RelationSet()
	if len(set) != len(want) {
		t.Fatalf("set has %d relations, want %d", len(set), len(want))
	}
	for _, r := range want {
		if !set.Has(r) || (r.Op != OpEnclosed) != set.Has(Relation{A: r.B, B: r.A, Op: r.Op}) {
			t.Errorf("set membership of %v or its converse is wrong", r)
		}
	}
	if set.Has(Relation{A: IDOf(a), B: IDOf(d), Op: OpAlias}) {
		t.Error("set holds a relation the model does not assert")
	}
	if got := (Relation{A: IDOf(d), B: IDOf(a), Op: OpSeparate}).String(); got != "add(rsp0,0xfffffffffffffff8)#8 ⋈ rdi0#8" {
		t.Errorf("separation renders as %q", got)
	}
	if got := (Relation{A: IDOf(c), B: IDOf(a), Op: OpEnclosed}).String(); got != "rdi0#4 ⪯ rdi0#8" {
		t.Errorf("enclosure renders as %q", got)
	}
}

func TestDestroyOnNoForkConfig(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	cfg.ForkUnknown = false
	f := Forest{Leaf(reg(expr.V("rdi0"), 4)), Leaf(reg(rsp(-8), 8))}
	res := Ins(reg(expr.V("rsi0"), 4), f, o, cfg)
	if len(res) != 1 {
		t.Fatalf("no-fork config must produce exactly one model, got %d", len(res))
	}
	if !res[0].Destroyed {
		t.Fatal("the no-fork model destroys regions but does not say so")
	}
	if v := res[0].Rel(IDOf(reg(expr.V("rdi0"), 4))); v != RelUnknown {
		t.Fatalf("unknown-relation region must be destroyed: %v", v)
	}
	if v := res[0].Rel(IDOf(reg(rsp(-8), 8))); v != RelUnknown {
		// rsp0-8 vs rsi0 is also unknown; it must be destroyed as well.
		t.Fatalf("stack region vs unknown pointer: %v", v)
	}
}

func TestRelationsOf(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	var f Forest
	for _, r := range []solver.Region{reg(rsp(-16), 8), reg(rsp(-12), 4), reg(rsp(-24), 8)} {
		res := Ins(r, f, o, cfg)
		if len(res) != 1 {
			t.Fatalf("deterministic insert expected")
		}
		f = res[0].Forest
	}
	// Re-inserting a present region reads its relations off the model.
	relOf := func(r solver.Region) *InsResult {
		res := Ins(r, f, o, cfg)
		if len(res) != 1 || !SameOrdered(res[0].Forest, f) {
			t.Fatalf("re-insert of %v changed the model: %v", r, res)
		}
		return &res[0]
	}
	rel := relOf(reg(rsp(-12), 4))
	if v := rel.Rel(IDOf(reg(rsp(-16), 8))); v != RelEnclosedIn {
		t.Errorf("parent: %v", v)
	}
	if v := rel.Rel(IDOf(reg(rsp(-24), 8))); v != RelSeparate {
		t.Errorf("sibling: %v", v)
	}
	rel = relOf(reg(rsp(-16), 8))
	if v := rel.Rel(IDOf(reg(rsp(-12), 4))); v != RelEncloses {
		t.Errorf("child: %v", v)
	}
}

func TestJoinIdentical(t *testing.T) {
	build := func() Forest { return Forest{Leaf(reg(rsp(-8), 8)), Leaf(reg(rsp(-16), 8))} }
	f := build()
	j := Join(f, build())
	if j.Key() != f.Key() {
		t.Fatalf("join of identical models: %v vs %v", j, f)
	}
}

// TestJoinExample313 replays Example 3.13: two models with top [rdi0,8] and
// different enclosed children join into one tree with both children.
func TestJoinExample313(t *testing.T) {
	top := reg(expr.V("rdi0"), 8)
	m0 := Forest{{Regions: []solver.Region{top}, Kids: Forest{Leaf(reg(expr.V("rdi0"), 4))}}}
	m1 := Forest{{Regions: []solver.Region{top}, Kids: Forest{Leaf(reg(expr.Add(expr.V("rdi0"), expr.Word(4)), 4))}}}
	j := Join(m0, m1)
	if len(j) != 1 {
		t.Fatalf("one tree expected: %v", j)
	}
	if len(j[0].Regions) != 1 || IDOf(j[0].Regions[0]) != IDOf(top) {
		t.Fatalf("top node: %v", j)
	}
	if len(j[0].Kids) != 2 {
		t.Fatalf("both children expected as siblings: %v", j)
	}
}

func TestJoinIntersectsAliasSets(t *testing.T) {
	a, b, c := reg(expr.V("a"), 8), reg(expr.V("b"), 8), reg(expr.V("c"), 8)
	m0 := Forest{{Regions: []solver.Region{a, b}}}
	m1 := Forest{{Regions: []solver.Region{a, c}}}
	j := Join(m0, m1)
	if len(j) != 1 || len(j[0].Regions) != 1 || IDOf(j[0].Regions[0]) != IDOf(a) {
		t.Fatalf("intersection must keep only the shared region: %v", j)
	}
}

func TestJoinDisjointModels(t *testing.T) {
	// Same-base one-sided trees encode geometric tautologies (stack slots
	// at constant offsets are separate in every state) and survive the
	// join.
	m0 := Forest{Leaf(reg(rsp(-8), 8))}
	m1 := Forest{Leaf(reg(rsp(-16), 8))}
	j := Join(m0, m1)
	if len(j) != 2 {
		t.Fatalf("tautological stack regions must survive: %v", j)
	}
	// Contingent one-sided trees (cross-base relations) are dropped: a
	// relation survives only when it holds in both disjuncts.
	m2 := Forest{Leaf(reg(expr.V("rdi0"), 8)), Leaf(reg(rsp(-8), 8))}
	m3 := Forest{Leaf(reg(rsp(-8), 8))}
	j2 := Join(m2, m3)
	if j2.HasRegion(reg(expr.V("rdi0"), 8)) {
		t.Fatalf("contingent one-sided tree must be dropped: %v", j2)
	}
	if !j2.HasRegion(reg(rsp(-8), 8)) {
		t.Fatalf("shared tree must survive: %v", j2)
	}
}

func TestHoldsConcrete(t *testing.T) {
	// Build {[rsp0-16,8] with child [rsp0-12,4], [rsp0-8,8]} and check it
	// holds under a concrete rsp0.
	o := topOracle()
	cfg := DefaultConfig()
	var f Forest
	for _, r := range []solver.Region{reg(rsp(-16), 8), reg(rsp(-12), 4), reg(rsp(-8), 8)} {
		res := Ins(r, f, o, cfg)
		f = res[0].Forest
	}
	eval := func(e *expr.Expr) (uint64, bool) {
		v := expr.Subst(e, "rsp0", expr.Word(0x7fff0000))
		return v.AsWord()
	}
	if !f.Holds(eval) {
		t.Fatalf("structured stack model must hold: %v", f)
	}
	// An inconsistent model: two "separate" siblings that concretely alias.
	bad := Forest{Leaf(reg(expr.V("p"), 8)), Leaf(reg(expr.V("q"), 8))}
	evalSame := func(e *expr.Expr) (uint64, bool) {
		v := expr.Subst(expr.Subst(e, "p", expr.Word(0x1000)), "q", expr.Word(0x1000))
		return v.AsWord()
	}
	if bad.Holds(evalSame) {
		t.Fatal("aliasing siblings must not hold")
	}
}

// TestQuickInsCompleteness is Lemma 3.11 in property form: for random
// same-base stack layouts (where every relation is decided), insertion is
// deterministic and the produced model's relations agree with concrete
// geometry.
func TestQuickInsCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	o := topOracle()
	cfg := DefaultConfig()
	stack := []*expr.Expr{expr.V("rsp0")}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		var regions []solver.Region
		var f Forest
		ok := true
		for i := 0; i < n && ok; i++ {
			r := quickRegion(rng, stack)
			res := Ins(r, f, o, cfg)
			if len(res) != 1 {
				t.Fatalf("same-base insert must be deterministic: %d models for %v into %v", len(res), r, f)
			}
			f = res[0].Forest
			regions = append(regions, r)
		}
		// The model must hold under a concrete valuation.
		eval := func(e *expr.Expr) (uint64, bool) {
			return expr.Subst(e, "rsp0", expr.Word(0x7ffff000)).AsWord()
		}
		if !f.Holds(eval) {
			t.Fatalf("model does not hold concretely: %v (inserted %v)", f, regions)
		}
	}
}

// quickRegion is the region generator of the insertion properties: a
// slot below one of the bases, 8 to 64 bytes down, 1 to 8 bytes wide. With
// one base it draws no base, so TestQuickInsCompleteness sees the layouts
// it always has.
func quickRegion(rng *rand.Rand, bases []*expr.Expr) solver.Region {
	base := bases[0]
	if len(bases) > 1 {
		base = bases[rng.Intn(len(bases))]
	}
	off := -8 * int64(1+rng.Intn(8))
	size := uint64(1) << uint(rng.Intn(4))
	return reg(expr.Add(base, expr.Word(uint64(off))), size)
}

// TestQuickInsRelations checks InsResult against concrete geometry over
// stack and symbolic bases, where insertion forks and destroys. For every
// produced model and a concrete valuation under which it holds, each
// relation Rel reports between a region of the input model and the
// inserted region is true of their two concrete address ranges, and
// Destroyed is set exactly when a region of the input model is missing.
func TestQuickInsRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	o := topOracle()
	bases := []*expr.Expr{expr.V("rsp0"), expr.V("rdi0"), expr.V("rsi0")}
	const sp = 0x7ffff000
	// Candidate addresses of the symbolic bases: equal to each other, at
	// offsets from each other and into the stack frame, or far apart.
	cands := []uint64{0x10000, 0x10004, 0x10008, 0x20000, sp, sp - 16}
	holdsUnder := func(f Forest) (func(*expr.Expr) (uint64, bool), bool) {
		for _, di := range cands {
			for _, si := range cands {
				eval := func(e *expr.Expr) (uint64, bool) {
					e = expr.Subst(e, "rsp0", expr.Word(sp))
					e = expr.Subst(e, "rdi0", expr.Word(di))
					return expr.Subst(e, "rsi0", expr.Word(si)).AsWord()
				}
				if f.Holds(eval) {
					return eval, true
				}
			}
		}
		return nil, false
	}
	partial := DefaultConfig()
	partial.AssumePartialImpossible = false
	nofork := DefaultConfig()
	nofork.ForkUnknown = false
	cfgs := []Config{DefaultConfig(), partial, nofork}
	seen := map[RelKind]int{}
	checked, destroyed := 0, 0
	for trial := 0; trial < 300; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		var f Forest
		for i := 0; i < 2+rng.Intn(5); i++ {
			r := quickRegion(rng, bases)
			input := f.AllRegions(nil)
			results := Ins(r, f, o, cfg)
			for _, res := range results {
				absent := false
				for _, x := range input {
					if !res.Forest.HasRegion(x) {
						absent = true
					}
				}
				if res.Destroyed != absent {
					t.Fatalf("trial %d: Destroyed=%v, but a region of %v is missing: %v (inserted %v into %v)",
						trial, res.Destroyed, f, absent, r, res.Forest)
				}
				if absent {
					destroyed++
				}
				eval, ok := holdsUnder(res.Forest)
				if !ok {
					continue
				}
				checked++
				ilo, _ := eval(r.Addr)
				ihi := ilo + r.Size
				for _, x := range append(input, r) {
					rel := res.Rel(IDOf(x))
					seen[rel]++
					if rel == RelUnknown {
						if res.Forest.HasRegion(x) {
							t.Fatalf("trial %d: %v is in the model but unknown", trial, IDOf(x))
						}
						continue
					}
					xlo, _ := eval(x.Addr)
					xhi := xlo + x.Size
					var holds bool
					switch rel {
					case RelAlias:
						holds = xlo == ilo && xhi == ihi
					case RelEnclosedIn:
						holds = xlo <= ilo && ihi <= xhi
					case RelEncloses:
						holds = ilo <= xlo && xhi <= ihi
					case RelSeparate:
						holds = xhi <= ilo || ihi <= xlo
					}
					if !holds {
						t.Fatalf("trial %d: %v %v inserted %v, but concretely [%#x,%#x) vs [%#x,%#x) in %v",
							trial, IDOf(x), rel, IDOf(r), xlo, xhi, ilo, ihi, res.Forest)
					}
				}
			}
			f = results[rng.Intn(len(results))].Forest
		}
	}
	for _, k := range []RelKind{RelSeparate, RelAlias, RelEnclosedIn, RelEncloses, RelUnknown} {
		if seen[k] < 20 {
			t.Errorf("only %d %v relations checked", seen[k], k)
		}
	}
	if checked < 1000 || destroyed < 50 {
		t.Fatalf("too little checked: %d models, %d of them with destroyed regions", checked, destroyed)
	}
}

// TestInsRelAllocatesNothing: reading a relation off a produced model,
// present or absent, deep or shallow, allocates nothing.
func TestInsRelAllocatesNothing(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	var f Forest
	for _, r := range []solver.Region{reg(rsp(-16), 8), reg(rsp(-12), 4), reg(rsp(-24), 8), reg(rsp(-10), 1)} {
		f = Ins(r, f, o, cfg)[0].Forest
	}
	res := Ins(reg(rsp(-12), 4), f, o, cfg)[0]
	ids := []RegionID{IDOf(reg(rsp(-16), 8)), IDOf(reg(rsp(-10), 1)), IDOf(reg(rsp(-24), 8)), IDOf(reg(expr.V("rdi0"), 8))}
	want := []RelKind{RelEnclosedIn, RelEncloses, RelSeparate, RelUnknown}
	for i, id := range ids {
		if got := res.Rel(id); got != want[i] {
			t.Fatalf("%v: %v, want %v", id, got, want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			res.Rel(id)
		}
	}); n != 0 {
		t.Fatalf("Rel: %v allocs, want 0", n)
	}
}

func TestRelKindString(t *testing.T) {
	kinds := []RelKind{RelSeparate, RelAlias, RelEnclosedIn, RelEncloses, RelUnknown}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty relation name")
		}
	}
}

// TestQuickJoinSoundnessLemma314 is Lemma 3.14 in property form: any
// concrete state satisfying either operand also satisfies the join.
func TestQuickJoinSoundnessLemma314(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	o := topOracle()
	cfg := DefaultConfig()
	buildModel := func() Forest {
		var f Forest
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			off := -8 * int64(1+rng.Intn(8))
			size := uint64(4) << uint(rng.Intn(2))
			res := Ins(reg(rsp(off), size), f, o, cfg)
			f = res[0].Forest
		}
		return f
	}
	eval := func(e *expr.Expr) (uint64, bool) {
		return expr.Subst(e, "rsp0", expr.Word(0x7ffff000)).AsWord()
	}
	for trial := 0; trial < 150; trial++ {
		m0 := buildModel()
		m1 := buildModel()
		j := Join(m0, m1)
		// Same-base models always hold concretely; so must their join.
		if !m0.Holds(eval) || !m1.Holds(eval) {
			t.Fatalf("trial %d: operand model does not hold", trial)
		}
		if !j.Holds(eval) {
			t.Fatalf("trial %d: join does not hold:\n m0=%v\n m1=%v\n j=%v", trial, m0, m1, j)
		}
		// Join is commutative up to keys.
		if Join(m1, m0).Key() != j.Key() {
			t.Fatalf("trial %d: join not commutative", trial)
		}
	}
}

// TestInsCountedFallback pins the observable MaxModels fallback: inserting a
// same-size region whose relation to every existing tree is undecided forks
// into (trees+1) models, so nine undecided trees exceed MaxModels=8 and the
// insertion must destroy — now reported instead of silent.
func TestInsCountedFallback(t *testing.T) {
	o := topOracle()
	cfg := DefaultConfig()
	var f Forest
	names := []expr.Var{"a0", "b0", "c0", "d0", "e0", "f0", "g0", "h0"}
	for _, v := range names {
		f = append(f, Leaf(reg(expr.V(v), 8)))
	}
	res, fellBack := InsCounted(reg(expr.V("p0"), 8), f, o, cfg)
	if !fellBack {
		t.Fatalf("inserting into %d undecided trees must exceed MaxModels=%d", len(f), cfg.MaxModels)
	}
	if len(res) != 1 {
		t.Fatalf("fallback must produce exactly the destroy model, got %d", len(res))
	}
	if !res[0].Destroyed {
		t.Fatal("the fallback model destroys regions but does not say so")
	}
	for _, v := range names {
		if rel := res[0].Rel(IDOf(reg(expr.V(v), 8))); rel != RelUnknown {
			t.Fatalf("fallback must destroy %s: %v", v, rel)
		}
	}

	// Below the cap: no fallback, and Ins agrees with InsCounted.
	small := Forest{Leaf(reg(expr.V("a0"), 8))}
	res2, fellBack2 := InsCounted(reg(expr.V("p0"), 8), small, o, cfg)
	if fellBack2 {
		t.Fatal("two-model fork is within the cap")
	}
	if got := Ins(reg(expr.V("p0"), 8), small, o, cfg); len(got) != len(res2) {
		t.Fatalf("Ins must match InsCounted: %d vs %d", len(got), len(res2))
	}

	// ForkUnknown=false hits the len==0 branch of the same fallback.
	nofork := cfg
	nofork.ForkUnknown = false
	_, fellBack3 := InsCounted(reg(expr.V("p0"), 8), small, o, nofork)
	if !fellBack3 {
		t.Fatal("no-fork undecided insertion is a fallback destroy")
	}

	// Re-inserting a present region is clean.
	_, fellBack4 := InsCounted(reg(expr.V("a0"), 8), small, o, cfg)
	if fellBack4 {
		t.Fatal("present-region insert must not fall back")
	}
}

// TestJoinSameOrderedAllocatesNothing: two independently built models with
// the same trees in the same order join to the second operand itself.
func TestJoinSameOrderedAllocatesNothing(t *testing.T) {
	build := func() Forest {
		return Forest{
			{Regions: []solver.Region{reg(rsp(-16), 16)}, Kids: Forest{Leaf(reg(rsp(-16), 8))}},
			Leaf(reg(expr.V("rdi0"), 8)),
		}
	}
	f, g := build(), build()
	if j := Join(f, g); len(j) != len(g) || &j[0] != &g[0] {
		t.Fatalf("join of same-ordered models must return the second operand: %v", j)
	}
	if n := testing.AllocsPerRun(100, func() { Join(f, g) }); n != 0 {
		t.Fatalf("join of same-ordered models: %v allocs, want 0", n)
	}
}

// TestQuickJoinOfSameModels: whenever two models built by Ins encode the
// same model, in any tree order, their join encodes it too. Inserting one
// region set in two orders produces such pairs; undecided bases make Ins
// fork, and each fork is kept. The test also checks that Ins leaves the
// (shared, immutable) input model unchanged.
func TestQuickJoinOfSameModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1312))
	o := topOracle()
	cfg := DefaultConfig()
	bases := []*expr.Expr{expr.V("rsp0"), expr.V("rdi0"), expr.V("rsi0")}
	build := func(regions []solver.Region, pick int) Forest {
		var f Forest
		for _, r := range regions {
			before := f.Key()
			res := Ins(r, f, o, cfg)
			if f.Key() != before {
				t.Fatalf("Ins of %v changed its input model to %v", r, f)
			}
			f = res[pick%len(res)].Forest
		}
		return f
	}
	same, reordered := 0, 0
	for trial := 0; trial < 300; trial++ {
		regions := make([]solver.Region, 2+rng.Intn(4))
		for i := range regions {
			base := bases[rng.Intn(1+trial%len(bases))]
			off := uint64(-8 * int64(rng.Intn(4)))
			regions[i] = reg(expr.Add(base, expr.Word(off)), uint64(4)<<uint(rng.Intn(2)))
		}
		shuffled := append([]solver.Region(nil), regions...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		pick := rng.Intn(3)
		f, g := build(regions, pick), build(shuffled, pick)
		for _, pair := range [][2]Forest{{f, g}, {g, f}, {f, build(regions, pick)}} {
			a, b := pair[0], pair[1]
			if !a.Same(b) {
				continue
			}
			same++
			if !SameOrdered(a, b) {
				reordered++
			}
			if j := Join(a, b); j.Key() != b.Key() {
				t.Fatalf("trial %d: join of the same model changed it:\n a=%v\n b=%v\n j=%v", trial, a, b, j)
			}
		}
	}
	if same < 500 || reordered < 100 {
		t.Fatalf("too few same-model pairs to mean anything: %d, %d of them reordered", same, reordered)
	}
}
