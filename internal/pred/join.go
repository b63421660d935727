package pred

import (
	"slices"
	"strconv"

	"repro/internal/expr"
	"repro/internal/x86"
)

// JoinVars holds the join variables of one Hoare-graph vertex. A state
// part's variable, "j<vid>_<register>" or "j<vid>_m<region key>", is named
// and interned the first time a join at the vertex abstracts the part, and
// reused by every later join there. Memory variables are kept in a slice
// in first-use order and found by a scan on the interned address pointer
// and the size: a vertex has at most as many as its predicates ever held
// memory clauses (at most 11 in Table 1 at scale 0.05, seeds 1 and 2,
// CoreUtilsSuite(1.0) and the ptr_ directory, with and without pointer
// facts). The scan starts after the last hit and wraps around: a join
// asks for regions in canonical order, the order in which the first join
// that abstracted them added them, so a lookup usually matches at once.
// A JoinVars belongs to one exploration: it is not safe for concurrent
// use.
type JoinVars struct {
	vid  string
	regs [17]*expr.Expr
	mem  []memVar
	next int // where the next memory scan starts, ≤ len(mem)
}

// memVar is the join variable of the memory region [addr, size].
type memVar struct {
	addr *expr.Expr
	size int
	v    *expr.Expr
}

// NewJoinVars returns the (still empty) join-variable table of the vertex
// identified by vid.
func NewJoinVars(vid string) *JoinVars { return &JoinVars{vid: vid} }

func (j *JoinVars) reg(i int) *expr.Expr {
	if j.regs[i] == nil {
		var buf [64]byte
		j.regs[i] = expr.InternVar(append(j.prefix(buf[:0]), x86.Reg(i).String()...))
	}
	return j.regs[i]
}

func (j *JoinVars) memVar(addr *expr.Expr, size int) *expr.Expr {
	for k, n := 0, len(j.mem); k < n; k++ {
		i := j.next + k
		if i >= n {
			i -= n
		}
		if m := &j.mem[i]; m.addr == addr && m.size == size {
			j.next = i + 1
			return m.v
		}
	}
	// The name embeds the region key "<address key>#<size>", sanitized:
	// names are part of the canonical output.
	var buf [128]byte
	name := append(j.prefix(buf[:0]), 'm')
	name = appendSanitized(name, addr.Key())
	name = strconv.AppendInt(append(name, '_'), int64(size), 10)
	v := expr.InternVar(name)
	if j.mem == nil {
		// Room for eight at once: on Table 1 that allocates fewer bytes
		// than growing the slice from one (BenchmarkTable1_lib).
		j.mem = make([]memVar, 0, 8)
	}
	j.mem = append(j.mem, memVar{addr: addr, size: size, v: v})
	j.next = len(j.mem)
	return v
}

// prefix appends the vertex's name prefix "j<vid>_" to b.
func (j *JoinVars) prefix(b []byte) []byte {
	return append(append(append(b, 'j'), j.vid...), '_')
}

// appendSanitized appends k as an identifier fragment: ASCII letters and
// digits are kept, and every other rune becomes one '_'.
func appendSanitized(b []byte, k string) []byte {
	for _, r := range k {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// Join computes P ⊔ Q per Definition 3.3: clauses present in both operands
// are kept; pairs of equality clauses on the same state part with different
// constant words are merged into interval clauses by range abstraction
// (Example 3.4); clauses with no common abstraction are dropped. The result
// satisfies s ⊢ P ∨ Q ⟹ s ⊢ P ⊔ Q.
//
// Range abstraction introduces a deterministic join variable per state part,
// taken from vars, the table of the Hoare-graph vertex q belongs to.
// Determinism makes the join idempotent, so the exploration's fixed point
// (σ ⊑ σc ⟺ σ ⊔ σc = σc) is detectable by comparing clauses. Intervals that
// keep growing across joins are widened away after a bounded number of
// growth steps, so there is no infinitely ascending chain.
//
// The result's own interval clauses are the join variables' intervals,
// and its rest holds the hulls of q's other clauses with p's clause on the
// same expression (see Pred). The own list is q's own list itself when the
// two agree clause for clause, and the rest is q's rest itself when no
// hull changed, so a join that only moves join-variable intervals copies
// only the short own list. A clause of q's own list that no join variable
// supersedes (on a vertex's first join, q's own list is another vertex's)
// joins like the rest and moves into it.
//
// Join consumes p: it may build its result in p's storage, so the caller
// must not use p afterwards (clone it first to keep it). It never modifies
// q, and the result may share clause lists with either. When the join
// reproduces q, clause for clause and list for list, it returns q itself
// and leaves p as it was: that is the fixed-point case, and it allocates
// nothing. Otherwise the result is p, and a join at a vertex whose
// variables exist allocates only the clause lists that change. A result
// that holds q's clauses split differently between the two lists is p,
// and Same reports it equal to q.
func Join(p, q *Pred, vars *JoinVars) *Pred {
	if p.bot {
		return q
	}
	if q.bot {
		return p
	}
	// Interval clauses on join variables; rarely more than a few, so the
	// buffer keeps them off the heap.
	var jbuf [8]RangeClause
	jranges := jbuf[:0]

	// Registers.
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

	// Flags: kept only when equal on both sides.
	var flags [x86.NumFlags]*expr.Expr
	for f := range p.flags {
		if p.flags[f] != nil && p.flags[f] == q.flags[f] {
			flags[f] = p.flags[f]
		}
	}
	cmp := joinCmp(p, q, &regs)

	// Memory clauses: a region survives only if both operands constrain it.
	// Both lists are in canonical order, so one merge walk pairs them.
	mem := lazyList[MemEntry]{base: q.mem}
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
		mem.add(MemEntry{Addr: pe.Addr, Size: pe.Size, Val: e})
		if c.E != nil {
			jranges = addJoinRange(jranges, c)
		}
	}

	// Interval clauses. The own list is the join variables' intervals.
	slices.SortFunc(jranges, cmpRange)
	own, ownSame := q.own, slices.Equal(jranges, q.own)
	if !ownSame {
		own = append([]RangeClause(nil), jranges...) // a copy: jranges is in a stack buffer
	}
	// The rest: q's other clauses hulled with p's. A clause of q on a join
	// variable that has an interval here is superseded by it; the mask
	// skips the scan for all other clauses.
	jmask := rangeMask(jranges)
	hulled := func(qc RangeClause) (RangeClause, bool) {
		if jmask&rangeBit(qc.E) != 0 && slices.ContainsFunc(jranges, func(c RangeClause) bool { return c.E == qc.E }) {
			return RangeClause{}, false
		}
		return joinRange(p, qc)
	}
	// Leftover own clauses of q, hulled, merge into the rest in canonical
	// order; only they cost key comparisons.
	var lbuf [8]RangeClause
	left := lbuf[:0]
	for _, qc := range q.own {
		if c, ok := hulled(qc); ok {
			left = append(left, c)
		}
	}
	rest := lazyList[RangeClause]{base: q.rest}
	for _, qc := range q.rest {
		for len(left) > 0 && cmpRange(left[0], qc) < 0 {
			rest.add(left[0])
			left = left[1:]
		}
		if c, ok := hulled(qc); ok {
			rest.add(c)
		}
	}
	for _, c := range left {
		rest.add(c)
	}

	memList, memSame := mem.result()
	restList, restSame := rest.result()
	if regs == q.regs && flags == q.flags && sameCmp(cmp, q.cmp) && memSame && ownSame && restSame {
		return q
	}
	*p = Pred{regs: regs, flags: flags, cmp: cmp, mem: memList}
	p.setRanges(own, restList)
	return p
}

// joinRange joins q's interval clause qc with p's clause on the same
// expression: their hull, passed through the widening stages. It reports
// false when p has no clause there, or when the hull is dropped or vacuous.
func joinRange(p *Pred, qc RangeClause) (RangeClause, bool) {
	pc, ok := p.rangeOf(qc.E)
	if !ok {
		return RangeClause{}, false
	}
	hull := Range{Lo: min(pc.R.Lo, qc.R.Lo), Hi: max(pc.R.Hi, qc.R.Hi)}
	widened, grows, ok := growHull(hull, qc.R, max(pc.grows, qc.grows))
	if !ok || vacuous(widened) {
		return RangeClause{}, false
	}
	return RangeClause{E: qc.E, R: widened, grows: grows}, true
}

// addJoinRange records a join variable's interval clause. Distinct state
// parts have distinct variables unless their names collide; then the
// later part's clause wins.
func addJoinRange(list []RangeClause, c RangeClause) []RangeClause {
	for i := range list {
		if list[i].E == c.E {
			list[i] = c
			return list
		}
	}
	return append(list, c)
}

// sameCmp reports whether two comparison descriptors are equal.
func sameCmp(a, b *Cmp) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Size == b.Size && a.Lhs == b.Lhs && a.Rhs == b.Rhs
}

// joinCmp joins the flag-defining comparison descriptors. Identical
// descriptors are kept. When the left operands differ but both are the
// (width-masked) value of the same register, the descriptor is re-expressed
// over the joined register value — this is what lets a loop's bounds check
// keep refining the joined loop counter.
func joinCmp(p, q *Pred, regs *[17]*expr.Expr) *Cmp {
	pc, qc := p.cmp, q.cmp
	if pc == nil || qc == nil || pc.Kind != qc.Kind || pc.Size != qc.Size || !pc.Rhs.Equal(qc.Rhs) {
		return nil
	}
	if pc.Lhs.Equal(qc.Lhs) {
		return pc
	}
	matches := func(lhs, regVal *expr.Expr) bool {
		if regVal == nil {
			return false
		}
		return lhs.Equal(regVal) || lhs.Equal(expr.ZExt(regVal, pc.Size))
	}
	for i := range p.regs {
		if regs[i] == nil {
			continue
		}
		if matches(pc.Lhs, p.regs[i]) && matches(qc.Lhs, q.regs[i]) {
			lhs := expr.ZExt(regs[i], pc.Size)
			if lhs == qc.Lhs {
				return qc
			}
			return &Cmp{Kind: pc.Kind, Lhs: lhs, Rhs: pc.Rhs, Size: pc.Size}
		}
	}
	return nil
}

// joinValue merges the two equality clauses part = pe and part = qe.
// It returns the joined value, the interval clause on it (E nil when there
// is none), and whether any clause survives. jv returns the part's join
// variable; it is called only when the part is abstracted, so a part both
// sides agree on needs no variable.
func joinValue(p, q *Pred, pe, qe *expr.Expr, jv func() *expr.Expr) (*expr.Expr, RangeClause, bool) {
	if pe == nil && qe == nil {
		return nil, RangeClause{}, false
	}
	if pe == nil || qe == nil {
		// One side is unconstrained: the join variable with no interval
		// stands for "some value" — keeping the state part named lets
		// later branch refinements re-bound it.
		return jv(), RangeClause{}, true
	}
	if pe == qe {
		// Identical values are kept as-is — unless they are interval
		// abstractions (a stored clause constrains them), in which case
		// they are re-abstracted to this vertex's join variable so the
		// surviving value can never outlive its interval clause. A clear
		// bit in both masks rules out a clause on either side at once.
		if (p.rmask|q.rmask)&rangeBit(pe) == 0 || !p.hasRange(pe) && !q.hasRange(pe) {
			return pe, RangeClause{}, true
		}
	}
	v := jv()
	// Abstract each side to an interval: a word is a point interval; any
	// value with a derivable interval abstracts to it (Definition 3.3's
	// range abstraction). Sides with no derivable interval, and hulls
	// that keep growing past the widening stages, abstract to the
	// unconstrained join variable.
	pr, pok := sideRange(p, pe, v)
	qr, qok := sideRange(q, qe, v)
	if !pok || !qok {
		return v, RangeClause{}, true
	}
	hull := Range{Lo: min(pr.R.Lo, qr.R.Lo), Hi: max(pr.R.Hi, qr.R.Hi)}
	widened, grows, ok := growHull(hull, qr.R, max(pr.grows, qr.grows))
	if !ok || vacuous(widened) {
		return v, RangeClause{}, true
	}
	return v, RangeClause{E: v, R: widened, grows: grows}, true
}

// sideRange abstracts one operand's value to an interval: a word is a
// point interval, and any value with a derivable interval clause (the
// state part's own join variable, another vertex's join variable, a masked
// expression) abstracts to that interval — the range abstraction of
// Definition 3.3.
func sideRange(p *Pred, e, jv *expr.Expr) (RangeClause, bool) {
	if w, ok := e.AsWord(); ok {
		return RangeClause{E: jv, R: Range{w, w}}, true
	}
	if r, ok := p.RangeOf(e); ok {
		// The widening counter is per state part per vertex: it carries
		// over only through this part's own join variable. A foreign
		// value's ladder position (e.g. a loop counter joined at another
		// vertex) must not escalate this vertex's widening.
		grows := 0
		if e == jv {
			if c, stored := p.rangeOf(e); stored {
				grows = c.grows
			}
		}
		return RangeClause{E: jv, R: r, grows: grows}, true
	}
	return RangeClause{}, false
}
