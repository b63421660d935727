package pred

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// The interval clauses of a predicate are split between its own list and
// the rest. These tests hold Join to the single-list join it replaced, and
// the readers to one canonical order however the clauses are split.

// allRanges returns the interval clauses in canonical order, widening
// counters included.
func allRanges(p *Pred) []RangeClause {
	var out []RangeClause
	p.eachRange(func(c RangeClause) { out = append(out, c) })
	return out
}

// flat returns a copy of p with every interval clause in the rest.
func flat(p *Pred) *Pred {
	q := p.Clone()
	q.setRanges(nil, allRanges(p))
	return q
}

// referenceJoin is Join as it was with one interval clause list: the join
// variables' intervals merged, by key comparison, with the hulls of q's
// clauses, p's clause on each found by a merge walk over p's list. It
// joins flat predicates and returns a flat result.
func referenceJoin(p, q *Pred, vars *JoinVars) *Pred {
	if p.bot {
		return q
	}
	if q.bot {
		return p
	}
	pr, qr := allRanges(p), allRanges(q)
	var jranges []RangeClause
	var regs [len(p.regs)]*expr.Expr
	for i := range p.regs {
		e, c, ok := joinValue(p, q, p.regs[i], q.regs[i], func() *expr.Expr { return vars.reg(i) })
		if !ok {
			continue
		}
		regs[i] = e
		if c.E != nil {
			jranges = addJoinRange(jranges, c)
		}
	}
	var flags [x86.NumFlags]*expr.Expr
	for f := range p.flags {
		if p.flags[f] != nil && p.flags[f] == q.flags[f] {
			flags[f] = p.flags[f]
		}
	}
	cmp := joinCmp(p, q, &regs)
	var mem []MemEntry
	i := 0
	for _, qe := range q.mem {
		for i < len(p.mem) && cmpMem(p.mem[i], qe) < 0 {
			i++
		}
		if i == len(p.mem) {
			break
		}
		pe := p.mem[i]
		if pe.Addr != qe.Addr || pe.Size != qe.Size {
			continue
		}
		e, c, ok := joinValue(p, q, pe.Val, qe.Val, func() *expr.Expr { return vars.memVar(pe.Addr, pe.Size) })
		if !ok {
			continue
		}
		mem = append(mem, MemEntry{Addr: pe.Addr, Size: pe.Size, Val: e})
		if c.E != nil {
			jranges = addJoinRange(jranges, c)
		}
	}
	slices.SortFunc(jranges, cmpRange)
	var ranges []RangeClause
	i, k := 0, 0
	for _, qc := range qr {
		for k < len(jranges) && cmpRange(jranges[k], qc) < 0 {
			ranges = append(ranges, jranges[k])
			k++
		}
		if k < len(jranges) && jranges[k].E == qc.E {
			ranges = append(ranges, jranges[k])
			k++
			continue
		}
		for i < len(pr) && cmpRange(pr[i], qc) < 0 {
			i++
		}
		if i == len(pr) || pr[i].E != qc.E {
			continue
		}
		pc := pr[i]
		hull := Range{Lo: min(pc.R.Lo, qc.R.Lo), Hi: max(pc.R.Hi, qc.R.Hi)}
		widened, grows, ok := growHull(hull, qc.R, max(pc.grows, qc.grows))
		if !ok || vacuous(widened) {
			continue
		}
		ranges = append(ranges, RangeClause{E: qc.E, R: widened, grows: grows})
	}
	ranges = append(ranges, jranges[k:]...)
	out := &Pred{regs: regs, flags: flags, cmp: cmp, mem: mem}
	out.setRanges(nil, ranges)
	return out
}

// splitGen draws predicate pairs for the join at vertex "sv": register and
// memory values that abstract to the vertex's join variables (so the join
// has own clauses), and interval clauses on those variables, on another
// vertex's variables, on plain atoms and on a sum, each put in the own
// list or the rest at random, with widening counters around the stages.
type splitGen struct {
	rng   *rand.Rand
	vars  *JoinVars
	atoms []*expr.Expr
	regs  []x86.Reg
	addrs []*expr.Expr
}

func newSplitGen(seed int64) *splitGen {
	g := &splitGen{
		rng:   rand.New(rand.NewSource(seed)),
		vars:  NewJoinVars("sv"),
		regs:  []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RSI},
		addrs: []*expr.Expr{expr.Add(expr.V("rsp0"), expr.Word(8)), expr.Add(expr.V("rsp0"), expr.Word(16))},
	}
	other := NewJoinVars("sw")
	for _, r := range g.regs {
		g.atoms = append(g.atoms, g.vars.reg(int(r)), other.reg(int(r)))
	}
	for _, a := range g.addrs {
		g.atoms = append(g.atoms, g.vars.memVar(a, 8))
	}
	g.atoms = append(g.atoms, expr.V("sa0"), expr.V("sa1"), expr.Add(expr.V("sa0"), expr.V("sa1")))
	return g
}

func (g *splitGen) interval() Range {
	switch g.rng.Intn(4) {
	case 0: // a tail that makes a vacuous hull with a low interval
		return Range{Lo: uint64(1 + g.rng.Intn(64)), Hi: ^uint64(0)}
	case 1: // large enough to saturate once the counter is past the exact stage
		return Range{Lo: 0, Hi: 1<<48 + uint64(g.rng.Intn(16))}
	default:
		lo := uint64(g.rng.Intn(32))
		return Range{Lo: lo, Hi: lo + uint64(g.rng.Intn(64))}
	}
}

// value picks a register or memory value: unconstrained, a word, one of
// the atoms, or the given shared value.
func (g *splitGen) value(shared *expr.Expr) *expr.Expr {
	switch g.rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return expr.Word(uint64(g.rng.Intn(48)))
	case 2:
		return g.atoms[g.rng.Intn(len(g.atoms))]
	default:
		return shared
	}
}

// pair draws a predicate pair. A third of the pairs join the vertex's
// stored predicate, the result of a join at the vertex, with a copy of it
// that one register or one refinement changed: the shape of a loop, where
// a join keeps most of q's lists.
func (g *splitGen) pair() (p, q *Pred) {
	if g.rng.Intn(3) > 0 {
		return g.fresh()
	}
	a, b := g.fresh()
	q = Join(a, b, g.vars)
	p = q.Clone()
	switch g.rng.Intn(3) {
	case 0:
		p.SetReg(g.regs[g.rng.Intn(len(g.regs))], g.value(expr.Word(uint64(g.rng.Intn(48)))))
	case 1:
		p.AddRange(g.atoms[g.rng.Intn(len(g.atoms))], g.interval())
	}
	return p, q
}

// fresh draws a pair with random clauses.
func (g *splitGen) fresh() (p, q *Pred) {
	p, q = New(), New()
	for _, r := range g.regs {
		shared := g.value(expr.Word(uint64(g.rng.Intn(48))))
		p.SetReg(r, g.value(shared))
		q.SetReg(r, g.value(shared))
	}
	for _, a := range g.addrs {
		shared := g.value(expr.Word(7))
		if v := g.value(shared); v != nil {
			p.WriteMem(a, 8, v)
		}
		if v := g.value(shared); v != nil {
			q.WriteMem(a, 8, v)
		}
	}
	if g.rng.Intn(2) == 0 {
		p.SetFlag(x86.ZF, expr.Word(1))
		q.SetFlag(x86.ZF, expr.Word(uint64(g.rng.Intn(2))))
	}
	for _, x := range []*Pred{p, q} {
		var own, rest []RangeClause
		for _, a := range g.atoms {
			if g.rng.Intn(3) == 0 {
				continue
			}
			c := RangeClause{E: a, R: g.interval(), grows: g.rng.Intn(maxGrows + 3)}
			if g.rng.Intn(2) == 0 {
				own = append(own, c)
			} else {
				rest = append(rest, c)
			}
		}
		slices.SortFunc(own, cmpRange)
		slices.SortFunc(rest, cmpRange)
		x.setRanges(own, rest)
	}
	return p, q
}

// TestJoinMatchesSingleListReference joins random pairs and holds every
// result to the single-list reference, clause for clause and widening
// counter for counter, with the result's lists in canonical order and
// disjoint. The draw must exercise what the split adds: q's own clauses
// that a join variable supersedes and ones that move into the rest, own
// lists kept from q, and clauses dropped by widening or a vacuous hull.
func TestJoinMatchesSingleListReference(t *testing.T) {
	g := newSplitGen(1)
	var superseded, leftover, ownKept, dropped, vacuousHull int
	for n := 0; n < 5000; n++ {
		p, q := g.pair()
		want := referenceJoin(flat(p), flat(q), g.vars)
		got := Join(p.Clone(), q, g.vars)
		if got.regs != want.regs || got.flags != want.flags || !sameCmp(got.cmp, want.cmp) ||
			!slices.Equal(got.mem, want.mem) || got.bot != want.bot {
			t.Fatalf("pair %d: non-interval clauses differ:\n%s\nwant\n%s", n, got, want)
		}
		if gr, wr := allRanges(got), allRanges(want); !slices.Equal(gr, wr) {
			t.Fatalf("pair %d: interval clauses\n%+v\nwant\n%+v", n, gr, wr)
		}
		if !got.Same(want) || got.RangesFingerprint() != want.RangesFingerprint() || got.Key() != want.Key() {
			t.Fatalf("pair %d: readers tell the split result from the reference", n)
		}
		checkSplit(t, got)
		if got != q && len(got.own) > 0 && len(q.own) > 0 && &got.own[0] == &q.own[0] {
			ownKept++
		}
		for _, qc := range q.own {
			if _, found := slices.BinarySearchFunc(got.own, qc, cmpRange); found {
				superseded++
			} else if got.hasRange(qc.E) {
				leftover++
			}
		}
		for _, qc := range allRanges(q) {
			pc, ok := p.rangeOf(qc.E)
			if !ok || got.hasRange(qc.E) {
				continue
			}
			dropped++
			if vacuous(Range{Lo: min(pc.R.Lo, qc.R.Lo), Hi: max(pc.R.Hi, qc.R.Hi)}) {
				vacuousHull++
			}
		}
	}
	if superseded < 500 || leftover < 500 || ownKept < 20 || dropped < 500 || vacuousHull < 100 {
		t.Fatalf("weak sample: %d superseded and %d leftover own clauses, %d own lists kept, %d dropped clauses, %d vacuous hulls",
			superseded, leftover, ownKept, dropped, vacuousHull)
	}
	t.Logf("%d superseded and %d leftover own clauses, %d own lists kept, %d dropped clauses, %d vacuous hulls",
		superseded, leftover, ownKept, dropped, vacuousHull)
}

// checkSplit requires both interval lists in canonical order, no
// expression in both, a mask and a compound flag over both, and Ranges in
// canonical order.
func checkSplit(t *testing.T, p *Pred) {
	t.Helper()
	sorted := func(list []RangeClause) bool {
		for i := 1; i < len(list); i++ {
			if cmpRange(list[i-1], list[i]) >= 0 {
				return false
			}
		}
		return true
	}
	if !sorted(p.own) || !sorted(p.rest) {
		t.Fatalf("a list out of canonical order: own %+v rest %+v", p.own, p.rest)
	}
	for _, c := range p.own {
		if slices.ContainsFunc(p.rest, func(d RangeClause) bool { return d.E == c.E }) {
			t.Fatalf("%s has a clause in both lists", c.E)
		}
	}
	var rs []RangeClause
	p.Ranges(func(e *expr.Expr, r Range) { rs = append(rs, RangeClause{E: e, R: r}) })
	if !sorted(rs) || len(rs) != len(p.own)+len(p.rest) {
		t.Fatalf("Ranges out of canonical order: %+v", rs)
	}
	if p.rmask != rangeMask(p.own)|rangeMask(p.rest) || p.compound != (hasCompound(p.own) || hasCompound(p.rest)) {
		t.Fatal("mask or compound flag out of step with the lists")
	}
}

// TestSplitReadersAgree: RangeOf, Clauses and RangesFingerprint read a
// split predicate as its flat copy does, on the clause expressions, their
// multiples and sums of atoms.
func TestSplitReadersAgree(t *testing.T) {
	g := newSplitGen(2)
	for n := 0; n < 2000; n++ {
		p, _ := g.pair()
		f := flat(p)
		if p.Key() != f.Key() || p.RangesFingerprint() != f.RangesFingerprint() {
			t.Fatalf("pair %d: rendering or fingerprint depends on the split", n)
		}
		a, b := g.atoms[g.rng.Intn(len(g.atoms))], g.atoms[g.rng.Intn(len(g.atoms))]
		for _, e := range []*expr.Expr{a, expr.Add(a, b), expr.Mul(expr.Word(3), expr.Add(a, b)), expr.Add(a, expr.Word(5))} {
			r, ok := p.RangeOf(e)
			fr, fok := f.RangeOf(e)
			if r != fr || ok != fok {
				t.Fatalf("pair %d: RangeOf(%s) = %+v %v, flat %+v %v", n, e, r, ok, fr, fok)
			}
		}
	}
}

// TestSameRangesIgnoresTheSplit: the same clauses split differently are
// the same ranges (and Same predicates); one interval moved, or a clause
// swapped for another, is not.
func TestSameRangesIgnoresTheSplit(t *testing.T) {
	g := newSplitGen(3)
	for n := 0; n < 2000; n++ {
		p, _ := g.pair()
		all := allRanges(p)
		var own, rest []RangeClause
		for _, c := range all {
			if g.rng.Intn(2) == 0 {
				own = append(own, c)
			} else {
				rest = append(rest, c)
			}
		}
		q := p.Clone()
		q.setRanges(own, rest)
		if !p.SameRanges(q) || !q.SameRanges(p) || !p.Same(q) {
			t.Fatalf("pair %d: a re-split predicate differs from its source", n)
		}
		if len(all) == 0 {
			continue
		}
		i := g.rng.Intn(len(all))
		moved := slices.Clone(all)
		moved[i].R.Hi++
		r := p.Clone()
		r.setRanges(nil, moved)
		if p.SameRanges(r) || r.SameRanges(p) {
			t.Fatalf("pair %d: a widened interval passed SameRanges", n)
		}
		swapped := slices.Clone(all)
		swapped[i].E = expr.V("sother")
		slices.SortFunc(swapped, cmpRange)
		r.setRanges(swapped, nil)
		if p.SameRanges(r) || r.SameRanges(p) {
			t.Fatalf("pair %d: a different clause set passed SameRanges", n)
		}
	}
}

// splitJoinFixture returns the stored predicate of a vertex after a join
// that gave it own clauses (rax and rcx on the vertex's join variables,
// four interval clauses in the rest), the vertex's join variables, and
// rax's variable.
func splitJoinFixture() (*Pred, *JoinVars, *expr.Expr) {
	vars := NewJoinVars("sf")
	build := func(rax, rcx uint64) *Pred {
		p := New()
		p.SetReg(x86.RAX, expr.Word(rax))
		p.SetReg(x86.RCX, expr.Word(rcx))
		p.SetReg(x86.RDI, expr.V("rdi0"))
		for i, a := range []string{"sfa", "sfb", "sfc", "sfd"} {
			p.AddRange(expr.V(expr.Var(a)), Range{Lo: 0, Hi: uint64(8 << i)})
		}
		return p
	}
	q := Join(build(1, 2), build(3, 4), vars)
	return q, vars, q.Reg(x86.RAX)
}

// TestSplitJoinAllocations pins what a join and a refinement copy: a join
// at the fixed point nothing, a join that moves only join-variable
// intervals the own list alone (sharing the rest), and AddRange on an own
// clause the own list alone.
func TestSplitJoinAllocations(t *testing.T) {
	q, vars, jv := splitJoinFixture()
	if len(q.own) != 2 || len(q.rest) != 4 {
		t.Fatalf("fixture: own %+v rest %+v", q.own, q.rest)
	}
	s := New()
	fixed := func() { *s = *q; sink = Join(s, q, vars) }
	if fixed(); sink != q {
		t.Fatal("joining the stored predicate with itself must return it")
	}
	if n := testing.AllocsPerRun(100, fixed); n != 0 {
		t.Fatalf("fixed-point join allocates %v objects, want 0", n)
	}

	// rax = 9 lies outside its variable's interval: only that interval
	// grows.
	p := q.Clone()
	p.SetReg(x86.RAX, expr.Word(9))
	grow := func() { *s = *p; sink = Join(s, q, vars) }
	grow()
	if sink == q || &sink.rest[0] != &q.rest[0] || &sink.own[0] == &q.own[0] {
		t.Fatal("a join-variable growth must copy the own list and share the rest")
	}
	if r, _ := sink.RangeOf(jv); r != (Range{Lo: 1, Hi: 9}) {
		t.Fatalf("grown interval %+v", r)
	}
	if n := testing.AllocsPerRun(100, grow); n != 1 {
		t.Fatalf("a join that moves one own interval allocates %v objects, want 1", n)
	}

	refine := func() { *s = *q; s.AddRange(jv, Range{Lo: 2, Hi: 3}) }
	refine()
	if &s.rest[0] != &q.rest[0] || &s.own[0] == &q.own[0] {
		t.Fatal("refining a join variable must copy the own list and share the rest")
	}
	if r, _ := s.RangeOf(jv); r != (Range{Lo: 2, Hi: 3}) {
		t.Fatalf("refined interval %+v", r)
	}
	checkSplit(t, s)
	if n := testing.AllocsPerRun(100, refine); n != 1 {
		t.Fatalf("AddRange on an own clause allocates %v objects, want 1", n)
	}
}
