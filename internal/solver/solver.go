// Package solver decides the "necessarily" pointer relations of
// Definition 3.6 — aliasing (≡), separation (⋈) and enclosure (⪯) — between
// symbolic memory regions under a predicate. It stands in for the Z3 SMT
// solver of the paper: compiler-generated address arithmetic is linear in a
// handful of symbolic bases (rsp0, argument registers, section addresses),
// so the solver subtracts linear normal forms and reasons over the constant
// or interval-valued difference. Anything outside that fragment yields
// Maybe, which soundly forces the lifter onto its fork/destroy paths.
//
// Compare is a pure function of the predicate's interval clauses and the
// two regions. When the two addresses differ by a constant — two slots of
// one frame, two fields of one object — the verdict is pure geometry and
// never reads the predicate. Only the other verdicts are memoized: Cache
// answers constant-difference pairs directly and keeps a concurrency-safe
// memo table for the rest, keyed on fingerprints of the input
// (pred.RangesFingerprint plus one fingerprint per region) and shared by
// the pipeline's lift workers and hglint.
package solver

import (
	"repro/internal/expr"
	"repro/internal/pred"
)

// Verdict is a three-valued answer about a relation between two regions.
type Verdict int8

// The three truth values: No (necessarily false), Yes (necessarily true)
// and Maybe (not decided).
const (
	No Verdict = iota
	Yes
	Maybe
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case No:
		return "no"
	case Yes:
		return "yes"
	default:
		return "maybe"
	}
}

// Region is a memory region ⟨address, size⟩ with a constant-expression
// address.
type Region struct {
	Addr *expr.Expr
	Size uint64
}

// Key returns the canonical key of the region.
func (r Region) Key() string { return r.Addr.Key() }

// Result reports, for an ordered pair of regions (r0, r1), the verdict of
// each of the five possible geometric relations. Exactly one relation holds
// in any concrete state, so at most one verdict is Yes, and if four are No
// the fifth is Yes.
type Result struct {
	Alias    Verdict // r0 ≡ r1
	Separate Verdict // r0 ⋈ r1
	Enclosed Verdict // r0 ⪯ r1 (strictly: enclosed, not alias)
	Encloses Verdict // r1 ⪯ r0 (strictly)
	Partial  Verdict // partially overlapping
}

// Decided reports whether some relation is necessarily true.
func (r Result) Decided() bool {
	return r.Alias == Yes || r.Separate == Yes || r.Enclosed == Yes ||
		r.Encloses == Yes || r.Partial == Yes
}

// Compare decides the relations between r0 and r1 under predicate p. The
// difference d = addr(r0) − addr(r1) is computed in linear normal form; if
// it is constant the geometry is exact, if it has interval-bounded terms
// the relations are decided over the interval, otherwise everything is
// Maybe. Two addresses with the same terms are recognised as a constant
// difference without building d. Offsets are interpreted as signed
// quantities (the paper's no-wraparound domain assumption for object
// addresses).
func Compare(p *pred.Pred, r0, r1 Region) Result {
	n0, n1 := int64(r0.Size), int64(r1.Size)
	if c, ok := SameBaseDistance(r0.Addr, r1.Addr); ok {
		return exact(c, n0, n1)
	}
	return compareDiff(p, expr.ToLinear(r0.Addr).Sub(expr.ToLinear(r1.Addr)), n0, n1)
}

// compareDiff decides the relations of two regions of sizes n0 and n1
// from the linear difference d of their addresses.
func compareDiff(p *pred.Pred, d *expr.Linear, n0, n1 int64) Result {
	if c, ok := d.Const(); ok {
		return exact(int64(c), n0, n1)
	}

	// Interval-valued difference: d = K + Σ c·t with every t bounded.
	lo, hi, ok := diffInterval(p, d)
	if !ok {
		// Nothing derivable about the offset; only the sizes refine.
		res := Result{Alias: Maybe, Separate: Maybe, Enclosed: Maybe, Encloses: Maybe, Partial: Maybe}
		switch {
		case n0 == n1:
			res.Enclosed, res.Encloses = No, No
		case n0 > n1:
			res.Enclosed = No
			res.Alias = No
		default:
			res.Encloses = No
			res.Alias = No
		}
		return res
	}
	res := Result{}
	// Separation: d + n0 ≤ 0 ∨ d ≥ n1.
	switch {
	case hi+n0 <= 0 || lo >= n1:
		res.Separate = Yes
	case lo+n0 > 0 && hi < n1:
		res.Separate = No
	default:
		res.Separate = Maybe
	}
	// Aliasing: d = 0 ∧ n0 = n1.
	switch {
	case n0 == n1 && lo == 0 && hi == 0:
		res.Alias = Yes
	case n0 != n1 || lo > 0 || hi < 0:
		res.Alias = No
	default:
		res.Alias = Maybe
	}
	// Enclosure r0 ⪯ r1 (excluding exact alias): d ≥ 0 ∧ d + n0 ≤ n1.
	switch {
	case lo >= 0 && hi+n0 <= n1 && !(n0 == n1 && lo == 0 && hi == 0):
		res.Enclosed = Yes
	case hi < 0 || lo+n0 > n1:
		res.Enclosed = No
	default:
		res.Enclosed = Maybe
	}
	// Converse enclosure: −d ≥ 0 ∧ −d + n1 ≤ n0.
	switch {
	case hi <= 0 && n1-lo <= n0 && !(n0 == n1 && lo == 0 && hi == 0):
		res.Encloses = Yes
	case lo > 0 || n1-hi > n0:
		res.Encloses = No
	default:
		res.Encloses = Maybe
	}
	// Equal sizes: non-trivial enclosure is impossible (it would be the
	// alias case), which sharpens the undecided verdicts.
	if n0 == n1 {
		res.Enclosed = No
		res.Encloses = No
	}
	// Exactly one relation holds concretely, so four No's imply the fifth.
	switch {
	case res.Alias == No && res.Separate == No && res.Enclosed == No && res.Encloses == No:
		res.Partial = Yes
	case res.Alias == Yes || res.Separate == Yes || res.Enclosed == Yes || res.Encloses == Yes:
		res.Partial = No
	default:
		res.Partial = Maybe
	}
	return res
}

// exact decides the relations for a constant signed difference.
func exact(c, n0, n1 int64) Result {
	r := Result{}
	switch {
	case c+n0 <= 0 || c >= n1:
		r.Separate = Yes
	case c == 0 && n0 == n1:
		r.Alias = Yes
	case c >= 0 && c+n0 <= n1:
		r.Enclosed = Yes
	case c <= 0 && n1-c <= n0:
		r.Encloses = Yes
	default:
		r.Partial = Yes
	}
	return r
}

// diffInterval bounds the linear difference d as a signed interval using
// the predicate's interval clauses on its terms. The constant K is read as
// signed; term contributions must be small enough not to overflow.
func diffInterval(p *pred.Pred, d *expr.Linear) (lo, hi int64, ok bool) {
	lo = int64(d.K)
	hi = lo
	ok = true
	d.Terms(func(atom *expr.Expr, coeff uint64) {
		if !ok {
			return
		}
		r, found := p.RangeOf(atom)
		if !found || r.Hi > 1<<40 {
			ok = false
			return
		}
		sc := int64(coeff)
		if sc > 0 && sc < 1<<23 {
			lo += sc * int64(r.Lo)
			hi += sc * int64(r.Hi)
			return
		}
		// Negative coefficient (stored modulo 2⁶⁴).
		nc := -sc
		if nc > 0 && nc < 1<<23 {
			lo -= nc * int64(r.Hi)
			hi -= nc * int64(r.Lo)
			return
		}
		ok = false
	})
	if !ok {
		return 0, 0, false
	}
	return lo, hi, true
}

// SameBaseDistance reports the exact signed distance between two addresses
// when their non-constant parts coincide, e.g. (rsp0−8) and (rsp0−32). Such
// a pair's verdict is geometry and reads no predicate. It builds nothing.
func SameBaseDistance(a0, a1 *expr.Expr) (int64, bool) {
	c, ok := expr.ToLinear(a0).ConstDiff(expr.ToLinear(a1))
	return int64(c), ok
}

// BaseAtom returns the single non-constant atom of an address when its
// linear form is base + constant (coefficient 1), which is how the lifter
// classifies pointer provenance (stack pointer, argument register, global).
func BaseAtom(a *expr.Expr) (*expr.Expr, bool) {
	l := expr.ToLinear(a)
	atom, coeff, ok := l.SingleTerm()
	if !ok || coeff != 1 {
		return nil, false
	}
	return atom, true
}
