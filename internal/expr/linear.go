package expr

import (
	"cmp"
	"slices"
	"strings"
)

// Linear is the linear normal form of an expression:
//
//	K + Σᵢ Cᵢ·tᵢ
//
// where the tᵢ are non-linear atoms (variables, region reads or opaque
// operator applications) and arithmetic is modulo 2⁶⁴. The solver decides
// pointer relations by subtracting linear forms; the simplifier uses it to
// canonicalise sums. Atoms are interned expressions, so terms match on the
// canonical pointer — merging coefficients never builds or hashes a key
// string. The terms are kept in canonical atom order, so iterating them
// needs no sort.
//
// The form ToLinear returns is cached on its expression and shared by every
// caller: it is read-only.
type Linear struct {
	K     uint64
	terms []term // non-zero coefficients, atoms in canonical order
}

// term is one atom of a linear form with its coefficient, modulo 2⁶⁴.
type term struct {
	atom  *Expr
	coeff uint64
}

// NumTerms returns the number of distinct non-constant terms.
func (l *Linear) NumTerms() int { return len(l.terms) }

// Terms calls f for each (atom, coefficient) pair in canonical key order.
func (l *Linear) Terms(f func(atom *Expr, coeff uint64)) {
	for _, tm := range l.terms {
		f(tm.atom, tm.coeff)
	}
}

// SingleTerm returns the unique (atom, coefficient) pair if the linear form
// has exactly one non-constant term, and reports whether it does.
func (l *Linear) SingleTerm() (atom *Expr, coeff uint64, ok bool) {
	if len(l.terms) != 1 {
		return nil, 0, false
	}
	return l.terms[0].atom, l.terms[0].coeff, true
}

// add accumulates c·e into a form under construction. The terms stay
// unordered until canon; sums have a handful of atoms, so a linear scan
// beats hashing.
func (l *Linear) add(e *Expr, c uint64) {
	if c == 0 {
		return
	}
	for i := range l.terms {
		if l.terms[i].atom == e {
			if l.terms[i].coeff += c; l.terms[i].coeff == 0 {
				l.terms = slices.Delete(l.terms, i, i+1)
			}
			return
		}
	}
	l.terms = append(l.terms, term{e, c})
}

// canon puts the terms of a form under construction into canonical order:
// by canonical key — the order the rendered sums have always used — with
// the fingerprint breaking the tie of two atoms that render alike.
func (l *Linear) canon() *Linear {
	slices.SortFunc(l.terms, func(a, b term) int {
		if c := strings.Compare(a.atom.Key(), b.atom.Key()); c != 0 {
			return c
		}
		return cmp.Compare(a.atom.fp, b.atom.fp)
	})
	return l
}

// ToLinear decomposes e into linear normal form, flattening nested sums,
// differences, negations and multiplications by constants. The form is
// built at most once per interned node and shared: callers must not
// modify it.
func ToLinear(e *Expr) *Linear {
	if l := e.lin.Load(); l != nil {
		if debugEqual {
			if f := buildLinear(e); f.K != l.K || !slices.Equal(f.terms, l.terms) {
				panic("expr: cached linear form disagrees with a fresh decomposition of " + e.Key())
			}
		}
		return l
	}
	l := buildLinear(e)
	if e.lin.CompareAndSwap(nil, l) {
		return l
	}
	// Another goroutine published its form first; both built the same one.
	return e.lin.Load()
}

func buildLinear(e *Expr) *Linear {
	l := &Linear{}
	linearInto(l, e, 1)
	return l.canon()
}

func linearInto(l *Linear, e *Expr, scale uint64) {
	switch e.kind {
	case KindWord:
		l.K += e.word * scale
	case KindOp:
		switch e.op {
		case OpAdd:
			for _, a := range e.args {
				linearInto(l, a, scale)
			}
			return
		case OpNeg:
			linearInto(l, e.args[0], -scale)
			return
		case OpMul:
			// Fold the constant factors; if at most one non-constant
			// factor remains the product is linear in it.
			k := uint64(1)
			var rest *Expr
			nrest := 0
			for _, a := range e.args {
				if w, ok := a.AsWord(); ok {
					k *= w
				} else {
					rest = a
					nrest++
				}
			}
			switch nrest {
			case 0:
				l.K += k * scale
				return
			case 1:
				linearInto(l, rest, k*scale)
				return
			}
		}
		l.add(e, scale)
	default:
		l.add(e, scale)
	}
}

// Expr re-emits the linear form as a canonical expression: terms sorted by
// key, the constant last, coefficient-1 terms bare, ±k coefficients chosen
// to print subtractions where natural.
func (l *Linear) Expr() *Expr {
	if len(l.terms) == 0 {
		return Word(l.K)
	}
	args := make([]*Expr, 0, len(l.terms)+1)
	for _, tm := range l.terms {
		if tm.coeff == 1 {
			args = append(args, tm.atom)
		} else {
			args = append(args, newOp(OpMul, Word(tm.coeff), tm.atom))
		}
	}
	if l.K != 0 {
		args = append(args, Word(l.K))
	}
	if len(args) == 1 {
		return args[0]
	}
	return newOp(OpAdd, args...)
}

// Sub returns l - m as a fresh linear form.
func (l *Linear) Sub(m *Linear) *Linear {
	d := &Linear{K: l.K - m.K, terms: make([]term, 0, len(l.terms)+len(m.terms))}
	for _, tm := range l.terms {
		d.add(tm.atom, tm.coeff)
	}
	for _, tm := range m.terms {
		d.add(tm.atom, -tm.coeff)
	}
	return d.canon()
}

// ConstDiff returns the constant l − m when the two forms have the same
// terms, and reports whether they do; unlike Sub it allocates nothing. Both
// term lists are in canonical order and atoms are interned, so l − m is
// constant exactly when the lists are equal element by element. The one
// exception needs two distinct atoms that render alike and whose 64-bit
// fingerprints collide too: they tie in the canonical order, may sit in
// either order, and ConstDiff reports no constant — the conservative
// answer, at the collision risk solver.Cache already accepts.
func (l *Linear) ConstDiff(m *Linear) (uint64, bool) {
	if !slices.Equal(l.terms, m.terms) {
		return 0, false
	}
	return l.K - m.K, true
}

// Ratio returns the scale s with l's non-constant part equal to s times m's,
// each of l's coefficients an exact multiple of m's, and reports whether
// there is one; m must have a term. Like ConstDiff it walks the two
// canonical term lists side by side, allocates nothing, and gives the
// conservative answer (no ratio) for two atoms that tie in the canonical
// order.
func (l *Linear) Ratio(m *Linear) (uint64, bool) {
	if len(l.terms) != len(m.terms) || len(m.terms) == 0 {
		return 0, false
	}
	var scale uint64
	for i, mt := range m.terms {
		lt := l.terms[i]
		if lt.atom != mt.atom || lt.coeff%mt.coeff != 0 {
			return 0, false
		}
		s := lt.coeff / mt.coeff
		if i > 0 && s != scale {
			return 0, false
		}
		scale = s
	}
	return scale, true
}

// Const returns the constant value of the linear form and whether it has no
// non-constant terms.
func (l *Linear) Const() (uint64, bool) {
	if len(l.terms) == 0 {
		return l.K, true
	}
	return 0, false
}
