// Package pred implements the predicates P of the paper (Section 3.1).
//
// A predicate is a set of clauses E □ C relating state parts to constant
// expressions. This implementation stores the clause set in solved form:
//
//   - one equality clause per register whose value is known, e.g.
//     rax = rdi0 + 8;
//   - equality clauses for memory regions, e.g. ∗[rsp0-16, 8] = rbx0;
//   - the flag-defining comparison (what cmp/test/sub last related), from
//     which the individual flag clauses are derived on demand;
//   - interval clauses e ≥ lo, e ≤ hi for constant expressions, produced
//     by branch refinement and by the join's range abstraction.
//
// The special predicates ⊤ (no clauses) and ⊥ (unsatisfiable) are
// represented by the empty predicate and the Bot flag. The join of
// Definition 3.3 merges equality clauses into interval clauses (range
// abstraction, Example 3.4) and drops clauses with no common abstraction.
package pred

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/x86"
)

// Range is an unsigned interval clause lo ≤ e ≤ hi.
type Range struct {
	Lo, Hi uint64
}

// Contains reports whether w lies in the interval.
func (r Range) Contains(w uint64) bool { return r.Lo <= w && w <= r.Hi }

// Width returns the number of values in the interval minus one.
func (r Range) Width() uint64 { return r.Hi - r.Lo }

// CmpKind says how the last flag-setting instruction computed the flags.
type CmpKind uint8

// The flag-defining computations tracked symbolically.
const (
	CmpNone CmpKind = iota
	CmpSub          // cmp / sub: flags of lhs - rhs
	CmpAnd          // test / and / or / xor: flags of the logical result
)

// Cmp is the flag-defining comparison descriptor.
type Cmp struct {
	Kind CmpKind
	Lhs  *expr.Expr // already masked to Size
	Rhs  *expr.Expr
	Size int // operand size in bytes
}

// MemEntry is one memory equality clause ∗[Addr, Size] = Val.
type MemEntry struct {
	Addr *expr.Expr // a constant expression (address in C)
	Size int
	Val  *expr.Expr
}

// Pred is a predicate over concrete states.
//
// The memory and interval clause lists are shared, never written in place
// (see clauses.go): Clone copies the struct, and a mutation of either
// predicate builds a new list for itself.
//
// The interval clauses are kept in two lists, each in Ranges order, and no
// expression has a clause in both. own holds the clauses that the join
// which built the predicate derived for its vertex's join variables (the
// range abstraction of Example 3.4); rest holds every other clause. The
// next join at that vertex rewrites the join variables' intervals far more
// often than any other clause, so with the lists apart it copies only the
// short own list and shares the rest. Every reader sees one clause set in
// one canonical order, however it is split.
type Pred struct {
	regs  [17]*expr.Expr // indexed by x86.Reg; nil = unconstrained
	flags [x86.NumFlags]*expr.Expr
	cmp   *Cmp
	mem   []MemEntry    // in MemEntries order
	own   []RangeClause // in Ranges order: the join's own clauses
	rest  []RangeClause // in Ranges order: every other interval clause

	// rmask has bit fp&63 set for the fingerprint fp of every interval
	// clause's expression, in either list, so a clear bit answers
	// rangeIndex at once. setRanges and AddRange keep it in step.
	rmask uint64
	// rfp caches RangesFingerprint until an interval clause list changes.
	rfp   uint64
	rfpOK bool
	bot   bool // next to rfpOK: the flags share a word
	// compound is set when some interval clause's expression is not a bare
	// atom (its linear form is not exactly 1·atom + 0); only then can
	// RangeOf's compound-clause walk match. Kept in step with the mask.
	compound bool
}

// RangeClause is one interval clause R.Lo ≤ E ≤ R.Hi.
type RangeClause struct {
	E     *expr.Expr
	R     Range
	grows int // widening counter: how many times the interval grew in joins
}

// Interval widening during joins proceeds in stages: the first growths
// take the exact hull (precise for short case splits), later growths jump
// the upper bound to the next power of two (loop counters with constant
// bounds stabilise after logarithmically many joins), and a clause whose
// interval keeps growing past the saturation point is dropped. This
// guarantees there is no infinitely ascending chain of predicates, i.e.
// the fixed point of Algorithm 1 terminates.
const (
	exactGrows = 8  // growths that take the exact hull
	maxGrows   = 24 // beyond this the clause is dropped
	hiSaturate = uint64(1) << 48
)

// growHull merges a freshly computed hull with the previously stored
// interval: unchanged hulls keep their clause as-is; grown hulls pass
// through the widening stages (exact first, then power-of-sixteen jumps);
// saturated or endlessly growing clauses are dropped.
func growHull(hull, prev Range, grows int) (Range, int, bool) {
	if hull == prev {
		return hull, grows, true
	}
	grows++
	if grows <= exactGrows {
		return hull, grows, true
	}
	if grows > maxGrows || hull.Hi >= hiSaturate {
		return Range{}, grows, false
	}
	// Jump to the next power-of-sixteen bound so ladders stabilise in a
	// handful of joins even for large loop bounds.
	p := uint64(16)
	for p != 0 && p <= hull.Hi {
		p <<= 4
	}
	if p == 0 {
		return Range{}, grows, false
	}
	hull.Hi = p - 1
	return hull, grows, true
}

// New returns the predicate ⊤.
func New() *Pred { return &Pred{} }

// Bot returns the predicate ⊥.
func Bot() *Pred { return &Pred{bot: true} }

// IsBot reports whether the predicate is ⊥.
func (p *Pred) IsBot() bool { return p.bot }

// Clone returns a copy that may be modified independently. It allocates
// only the copy itself: the clause lists are shared until either side
// changes them.
func (p *Pred) Clone() *Pred {
	q := *p
	return &q
}

// Reg returns the constant expression the predicate assigns to the full
// 64-bit register, or nil if unconstrained.
func (p *Pred) Reg(r x86.Reg) *expr.Expr {
	if int(r) >= len(p.regs) {
		return nil
	}
	return p.regs[r]
}

// SetReg installs the equality clause r = e (e nil clears the clause).
func (p *Pred) SetReg(r x86.Reg, e *expr.Expr) {
	if int(r) < len(p.regs) {
		p.regs[r] = e
	}
}

// Flag returns the 0/1-valued expression for the given flag, or nil.
func (p *Pred) Flag(f x86.Flag) *expr.Expr { return p.flags[f] }

// SetFlag installs the clause f = e.
func (p *Pred) SetFlag(f x86.Flag, e *expr.Expr) { p.flags[f] = e }

// ClearFlags removes all flag clauses and the comparison descriptor.
func (p *Pred) ClearFlags() {
	for i := range p.flags {
		p.flags[i] = nil
	}
	p.cmp = nil
}

// SetCmp records the flag-defining comparison and clears individual flag
// clauses (they are implied by the descriptor).
func (p *Pred) SetCmp(c *Cmp) {
	p.ClearFlags()
	p.cmp = c
}

// LastCmp returns the flag-defining comparison descriptor, if any.
func (p *Pred) LastCmp() *Cmp { return p.cmp }

// ReadMem returns the value clause for region [addr, size], if present.
func (p *Pred) ReadMem(addr *expr.Expr, size int) (*expr.Expr, bool) {
	i := p.memIndex(addr, size)
	if i < 0 {
		return nil, false
	}
	return p.mem[i].Val, true
}

// WriteMem installs the clause ∗[addr, size] = val.
func (p *Pred) WriteMem(addr *expr.Expr, size int, val *expr.Expr) {
	w := MemEntry{Addr: addr, Size: size, Val: val}
	switch i := p.memIndex(addr, size); {
	case i < 0:
		i, _ = slices.BinarySearchFunc(p.mem, w, cmpMem)
		p.mem = withEntry(p.mem, i, w, false)
	case p.mem[i].Val != val:
		p.mem = withEntry(p.mem, i, w, true)
	}
}

// WriteMemWith rewrites every memory clause through other, which returns
// the clause's new value or nil to drop it, and then installs the clause
// ∗[addr, size] = val, which replaces whatever other made of that region's
// own clause. It builds at most one new clause list.
func (p *Pred) WriteMemWith(addr *expr.Expr, size int, val *expr.Expr, other func(MemEntry) *expr.Expr) {
	w := MemEntry{Addr: addr, Size: size, Val: val}
	out := lazyList[MemEntry]{base: p.mem}
	written := false
	for _, e := range p.mem {
		v := other(e)
		c := cmpMem(e, w)
		if c >= 0 && !written {
			out.add(w)
			written = true
		}
		if c != 0 && v != nil {
			out.add(MemEntry{Addr: e.Addr, Size: e.Size, Val: v})
		}
	}
	if !written {
		out.add(w)
	}
	p.mem, _ = out.result()
}

// DropMem removes the value clause for the exact region, if present.
func (p *Pred) DropMem(addr *expr.Expr, size int) {
	if i := p.memIndex(addr, size); i >= 0 {
		p.mem = without(p.mem, i)
	}
}

// MemEntries calls f for every memory clause in canonical order: by
// address key, then size; the fingerprint orders two addresses that render
// alike.
func (p *Pred) MemEntries(f func(MemEntry)) {
	for _, e := range p.mem {
		f(e)
	}
}

// FilterMem keeps only the memory clauses for which keep returns true.
func (p *Pred) FilterMem(keep func(MemEntry) bool) {
	out := lazyList[MemEntry]{base: p.mem}
	for _, e := range p.mem {
		if keep(e) {
			out.add(e)
		}
	}
	p.mem, _ = out.result()
}

// NumMem returns the number of memory clauses.
func (p *Pred) NumMem() int { return len(p.mem) }

// AddRange installs (or narrows) the interval clause lo ≤ e ≤ hi. If e is a
// constant word outside the interval, the predicate becomes ⊥. A clause on
// an offset expression atom + k is normalised to a clause on the atom when
// the shift cannot wrap.
func (p *Pred) AddRange(e *expr.Expr, r Range) {
	if vacuous(r) {
		return
	}
	if w, ok := e.AsWord(); ok {
		if !r.Contains(w) {
			p.bot = true
		}
		return
	}
	if atom, ar, ok := shiftedClause(e, r); ok {
		p.AddRange(atom, ar)
		return
	}
	list, i := p.rangeIndex(e)
	if i < 0 {
		// A new clause goes into the rest; it adds its own bit to the mask
		// and can only set the compound flag.
		i, _ = slices.BinarySearchFunc(p.rest, RangeClause{E: e}, cmpRange)
		p.rest = withEntry(p.rest, i, RangeClause{E: e, R: r}, false)
		p.rmask |= rangeBit(e)
		p.compound = p.compound || !bareAtom(e)
		p.rfpOK = false
		return
	}
	// Intersect, in the list that holds the clause: refining a join
	// variable copies only the own list.
	c := (*list)[i]
	c.R.Lo = max(c.R.Lo, r.Lo)
	c.R.Hi = min(c.R.Hi, r.Hi)
	if c.R.Lo > c.R.Hi {
		p.bot = true
		return
	}
	if c != (*list)[i] {
		*list = withEntry(*list, i, c, true)
		p.rfpOK = false
	}
}

// setRanges installs new interval clause lists, recomputing the mask and
// the compound flag over both. AddRange, which only narrows or adds one
// clause, updates them for that clause instead.
func (p *Pred) setRanges(own, rest []RangeClause) {
	p.own, p.rest = own, rest
	p.rmask = rangeMask(own) | rangeMask(rest)
	p.compound = hasCompound(own) || hasCompound(rest)
	p.rfpOK = false
}

// hasCompound reports whether some clause of list is not on a bare atom.
func hasCompound(list []RangeClause) bool {
	return slices.ContainsFunc(list, func(c RangeClause) bool { return !bareAtom(c.E) })
}

// bareAtom reports whether e's linear form is exactly 1·atom + 0.
func bareAtom(e *expr.Expr) bool {
	l := expr.ToLinear(e)
	_, coeff, ok := l.SingleTerm()
	return ok && coeff == 1 && l.K == 0
}

// rangeBit is e's bit in a predicate's interval mask.
func rangeBit(e *expr.Expr) uint64 { return 1 << (e.Fingerprint() & 63) }

// rangeMask returns the interval mask of a clause list.
func rangeMask(list []RangeClause) uint64 {
	var m uint64
	for _, c := range list {
		m |= rangeBit(c.E)
	}
	return m
}

// vacuous reports whether an interval admits every word.
func vacuous(r Range) bool { return r.Lo == 0 && r.Hi == ^uint64(0) }

// shiftedClause returns the clause on atom that AddRange stores in place of
// e ∈ r when e is atom + k and the shift cannot wrap.
func shiftedClause(e *expr.Expr, r Range) (*expr.Expr, Range, bool) {
	l := expr.ToLinear(e)
	if l.K == 0 || l.K >= r.Lo || r.Lo > r.Hi {
		return nil, Range{}, false
	}
	atom, coeff, ok := l.SingleTerm()
	if !ok || coeff != 1 {
		return nil, Range{}, false
	}
	return atom, Range{Lo: r.Lo - l.K, Hi: r.Hi - l.K}, true
}

// storedAsGiven reports whether AddRange(e, r), on a predicate without a
// clause on e, stores exactly the clause e ∈ r.
func storedAsGiven(e *expr.Expr, r Range) bool {
	if _, word := e.AsWord(); word || vacuous(r) {
		return false
	}
	_, _, shifts := shiftedClause(e, r)
	return !shifts
}

// rangeOf returns the stored interval clause on e.
func (p *Pred) rangeOf(e *expr.Expr) (RangeClause, bool) {
	list, i := p.rangeIndex(e)
	if i < 0 {
		return RangeClause{}, false
	}
	return (*list)[i], true
}

// RangeOf computes an unsigned interval for e under the predicate's
// clauses: constants map to point intervals, constrained expressions to
// their stored intervals, linear combinations to interval arithmetic over
// their parts (with overflow checked), and constant multiples of a
// compound clause's expression to that clause's interval scaled. The
// second result reports whether any interval could be derived. The
// compound-clause walk runs only on a predicate with a clause that is not
// on a bare atom: on any other it cannot match (see the comment there).
func (p *Pred) RangeOf(e *expr.Expr) (Range, bool) {
	if w, ok := e.AsWord(); ok {
		return Range{w, w}, true
	}
	if c, ok := p.rangeOf(e); ok {
		return c.R, true
	}
	if r, ok := intrinsicRange(e); ok {
		return r, true
	}
	// Interval arithmetic over the linear form: K + Σ cᵢ·tᵢ where each tᵢ
	// has a known interval and the total cannot wrap.
	l := expr.ToLinear(e)
	if l.NumTerms() == 0 {
		return Range{l.K, l.K}, true
	}
	lo, hi := l.K, l.K
	ok := true
	l.Terms(func(atom *expr.Expr, coeff uint64) {
		if !ok {
			return
		}
		c, found := p.rangeOf(atom)
		if !found {
			if ir, irOK := intrinsicRange(atom); irOK {
				c = RangeClause{E: atom, R: ir}
			} else {
				ok = false
				return
			}
		}
		// Only handle positive "small" coefficients; anything else is
		// treated as underivable (sound: we just return no interval).
		if coeff == 0 || coeff > 1<<32 {
			ok = false
			return
		}
		nlo := lo + coeff*c.R.Lo
		nhi := hi + coeff*c.R.Hi
		if nlo < lo || nhi < hi || nlo > nhi {
			ok = false // wrapped
			return
		}
		lo, hi = nlo, nhi
	})
	if ok {
		return Range{lo, hi}, true
	}
	// Composite clause match: a stored interval on a compound expression
	// (e.g. rdi0 + rsi0, from a branch refinement) bounds any constant
	// multiple of it: e = scale·ek + K. The first match in canonical key
	// order wins.
	//
	// When every clause is on a bare atom, the walk cannot match, so it is
	// skipped. Linear.Ratio matches only equal term sets, so a value with
	// several terms matches only a clause with several terms. A value
	// c·a + K with one term matches a bare clause only on a itself, and
	// the term loop above has already tried that clause with the same
	// bounds. It fails there in two cases only, and the walk rejects both:
	// c > 2³², which the walk's scale cap of 2²³ excludes, or a wrap of
	// K + c·lo or K + c·hi, which (with the walk's caps keeping c·hi below
	// 2⁶³, and c·lo ≤ c·hi) wraps K + c·hi and fails the walk's nhi >= base.
	//
	// Each list is in canonical order, so the first match overall is the
	// earlier of the two lists' first matches.
	if !p.compound {
		return Range{}, false
	}
	r, at, ok := scaledMatch(l, p.own)
	if rr, rat, rok := scaledMatch(l, p.rest); rok && (!ok || cmpExpr(rat, at) < 0) {
		return rr, true
	}
	return r, ok
}

// scaledMatch returns the interval of l = scale·E + K bounded by the first
// clause of list (in list order) that l is a constant multiple of, and the
// expression of that clause.
func scaledMatch(l *expr.Linear, list []RangeClause) (Range, *expr.Expr, bool) {
	for _, c := range list {
		lk := expr.ToLinear(c.E)
		scale, matches := l.Ratio(lk)
		if !matches || scale == 0 || scale > 1<<23 || c.R.Hi > 1<<40 {
			continue
		}
		base := l.K - scale*lk.K
		nlo := base + scale*c.R.Lo
		nhi := base + scale*c.R.Hi
		if nlo <= nhi && nhi >= base {
			return Range{nlo, nhi}, c.E, true
		}
	}
	return Range{}, nil, false
}

// intrinsicRange derives an interval from the shape of an expression: a
// conjunction with a constant mask is bounded by the mask (this is how
// masked array indices x & (n-1) are proven in bounds).
func intrinsicRange(e *expr.Expr) (Range, bool) {
	if e.Kind() == expr.KindOp && e.OpKind() == expr.OpAnd {
		args := e.Args()
		if len(args) == 2 {
			if w, ok := args[1].AsWord(); ok && w <= 1<<40 {
				return Range{Lo: 0, Hi: w}, true
			}
		}
	}
	return Range{}, false
}

// Ranges calls f for every interval clause in canonical order: by key, the
// fingerprint ordering two expressions that render alike.
func (p *Pred) Ranges(f func(e *expr.Expr, r Range)) {
	p.eachRange(func(c RangeClause) { f(c.E, c.R) })
}

// eachRange calls f for every interval clause in canonical order: the
// merge of the own list and the rest.
func (p *Pred) eachRange(f func(RangeClause)) {
	a, b := p.own, p.rest
	for len(a) > 0 && len(b) > 0 {
		if cmpRange(a[0], b[0]) < 0 {
			f(a[0])
			a = a[1:]
		} else {
			f(b[0])
			b = b[1:]
		}
	}
	for _, c := range a {
		f(c)
	}
	for _, c := range b {
		f(c)
	}
}

// CodePointerParts returns a deterministic signature of every state part
// whose equality clause is an immediate word within [lo, hi) — registers
// and memory clauses alike. The lifter's compatibility extension refuses
// to join states whose signatures differ: immediate pointers into the
// text section will highly likely influence future control flow
// (Section 4). Registers come in register order, memory clauses in
// MemEntries order.
func (p *Pred) CodePointerParts(lo, hi uint64) []string {
	isCodePointer := func(e *expr.Expr) bool {
		w, ok := e.AsWord()
		return ok && w >= lo && w < hi
	}
	var out []string
	for i, e := range p.regs {
		if e != nil && isCodePointer(e) {
			out = append(out, fmt.Sprintf("%s=%x", x86.Reg(i), e.WordVal()))
		}
	}
	for _, m := range p.mem {
		if isCodePointer(m.Val) {
			out = append(out, fmt.Sprintf("m%s=%x", m.Addr.Key(), m.Val.WordVal()))
		}
	}
	return out
}

// Clauses renders the clause set in a stable human-readable order, the
// form exported to the theory file.
func (p *Pred) Clauses() []string {
	if p.bot {
		return []string{"⊥"}
	}
	var out []string
	for i, e := range p.regs {
		if e != nil {
			out = append(out, fmt.Sprintf("%s == %s", x86.Reg(i), e))
		}
	}
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		if p.flags[f] != nil {
			out = append(out, fmt.Sprintf("%s == %s", f, p.flags[f]))
		}
	}
	if p.cmp != nil {
		kind := "sub"
		if p.cmp.Kind == CmpAnd {
			kind = "and"
		}
		out = append(out, fmt.Sprintf("flags == %s(%s, %s, %d)", kind, p.cmp.Lhs, p.cmp.Rhs, p.cmp.Size))
	}
	p.MemEntries(func(m MemEntry) {
		out = append(out, fmt.Sprintf("*[%s,%d] == %s", m.Addr, m.Size, m.Val))
	})
	p.eachRange(func(c RangeClause) {
		out = append(out, fmt.Sprintf("%s >= 0x%x", c.E, c.R.Lo))
		out = append(out, fmt.Sprintf("%s <= 0x%x", c.E, c.R.Hi))
	})
	return out
}

// Key returns a canonical fingerprint of the predicate, used to detect the
// fixed point (σ ⊑ σc iff σ ⊔ σc has the same key as σc).
func (p *Pred) Key() string {
	return strings.Join(p.Clauses(), ";")
}

// RangesFingerprint returns a 64-bit fingerprint of the interval clause set,
// the key of the solver's memo table: Compare consults the predicate only
// through RangeOf, i.e. through the interval clauses. Each clause hashes to
// MixFP(MixFP(fp(e), lo), hi) and the clauses combine by wrapping addition,
// so the split of the clauses between the two lists does not show.
// Cached until an interval clause list changes.
func (p *Pred) RangesFingerprint() uint64 {
	if p.rfpOK {
		return p.rfp
	}
	h := rangesHash(p.own) + rangesHash(p.rest)
	p.rfp = h
	p.rfpOK = true
	return h
}

// rangesHash sums the clause hashes of one list.
func rangesHash(list []RangeClause) uint64 {
	var h uint64
	for _, c := range list {
		h += expr.MixFP(expr.MixFP(c.E.Fingerprint(), c.R.Lo), c.R.Hi)
	}
	return h
}

// SameRanges reports whether two predicates carry the same interval
// clauses, compared pointer by pointer, however each splits them between
// its two lists. The solver reads a predicate only through these clauses,
// so predicates with the same ranges get the same Compare verdicts.
func (p *Pred) SameRanges(q *Pred) bool {
	same := func(a, b RangeClause) bool { return a.E == b.E && a.R == b.R }
	if slices.EqualFunc(p.own, q.own, same) && slices.EqualFunc(p.rest, q.rest, same) {
		return true
	}
	// Split differently, or different: equal sets have equal sizes and
	// masks, and then every clause of p must be found in q.
	if len(p.own)+len(p.rest) != len(q.own)+len(q.rest) || p.rmask != q.rmask {
		return false
	}
	for _, list := range [2][]RangeClause{p.own, p.rest} {
		for _, c := range list {
			if d, ok := q.rangeOf(c.E); !ok || d.R != c.R {
				return false
			}
		}
	}
	return true
}

// Same reports exact semantic equality of two predicates: equal clause sets
// up to the canonical Key rendering, ignoring the widening counters (which
// Key also ignores) and how the interval clauses are split between the
// two lists. Clause lists are in canonical order and clauses are interned,
// so it compares position by position, pointer by pointer.
func (p *Pred) Same(q *Pred) bool {
	if p == q {
		return true
	}
	if p.bot || q.bot {
		return p.bot == q.bot
	}
	if p.regs != q.regs || p.flags != q.flags {
		return false
	}
	switch {
	case p.cmp == nil && q.cmp == nil:
	case p.cmp == nil || q.cmp == nil:
		return false
	default:
		pc, qc := p.cmp, q.cmp
		if pc.Kind != qc.Kind || pc.Size != qc.Size || pc.Lhs != qc.Lhs || pc.Rhs != qc.Rhs {
			return false
		}
	}
	return slices.Equal(p.mem, q.mem) && p.SameRanges(q)
}

// String renders the predicate for humans.
func (p *Pred) String() string {
	c := p.Clauses()
	if len(c) == 0 {
		return "⊤"
	}
	return strings.Join(c, " ∧ ")
}
