package pred

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/expr"
)

// The memory and interval clauses of a predicate are immutable sorted
// slices that clones and joins share. Nothing writes into a clause list
// once a predicate holds it: every mutation builds a new list (or keeps the
// old one when it changes nothing), so a clone costs one struct copy and
// no reader sorts, hashes or walks a map.

// cmpExpr orders interned expressions canonically: by key, the fingerprint
// breaking the tie of two that render alike (as expr.Linear orders atoms).
// Equal pointers compare equal without touching either key.
func cmpExpr(a, b *expr.Expr) int {
	if a == b {
		return 0
	}
	if c := strings.Compare(a.Key(), b.Key()); c != 0 {
		return c
	}
	return cmp.Compare(a.Fingerprint(), b.Fingerprint())
}

// cmpMem orders memory clauses by region: address, then size.
func cmpMem(a, b MemEntry) int {
	if c := cmpExpr(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Size, b.Size)
}

// cmpRange orders interval clauses by their constrained expression.
func cmpRange(a, b RangeClause) int { return cmpExpr(a.E, b.E) }

// memIndex returns the index of the clause on region [addr, size], or -1.
// Lookups scan by pointer: a predicate holds tens of clauses, and a binary
// search over the canonical order would cost a key compare per probe.
func (p *Pred) memIndex(addr *expr.Expr, size int) int {
	for i := range p.mem {
		if p.mem[i].Addr == addr && p.mem[i].Size == size {
			return i
		}
	}
	return -1
}

// rangeIndex returns the list that holds the interval clause on e and the
// clause's index in it, or index -1. It scans both lists by pointer, like
// memIndex, unless e's bit of the interval mask is clear: then no clause
// can be on e.
func (p *Pred) rangeIndex(e *expr.Expr) (*[]RangeClause, int) {
	if p.rmask&rangeBit(e) == 0 {
		return nil, -1
	}
	for i := range p.own {
		if p.own[i].E == e {
			return &p.own, i
		}
	}
	for i := range p.rest {
		if p.rest[i].E == e {
			return &p.rest, i
		}
	}
	return nil, -1
}

// hasRange reports whether some interval clause is on e.
func (p *Pred) hasRange(e *expr.Expr) bool {
	_, i := p.rangeIndex(e)
	return i >= 0
}

// withEntry returns a copy of list with x at index i, replacing the element
// there when replace is set and inserting before it otherwise.
func withEntry[T any](list []T, i int, x T, replace bool) []T {
	n := len(list)
	if !replace {
		n++
	}
	out := make([]T, 0, n)
	out = append(out, list[:i]...)
	out = append(out, x)
	if replace {
		i++
	}
	return append(out, list[i:]...)
}

// without returns a copy of list with the element at index i removed.
func without[T any](list []T, i int) []T {
	out := make([]T, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...)
}

// lazyList builds a clause list that usually reproduces base: clauses added
// in order are matched against base, and the list is copied only from the
// first clause that departs from it.
type lazyList[T comparable] struct {
	base   []T
	out    []T
	n      int // clauses added; while !copied they equal base[:n]
	copied bool
}

func (l *lazyList[T]) add(x T) {
	if !l.copied {
		if l.n < len(l.base) && l.base[l.n] == x {
			l.n++
			return
		}
		l.copied = true
		l.out = make([]T, l.n, max(len(l.base), l.n+1))
		copy(l.out, l.base)
	}
	l.out = append(l.out, x)
	l.n++
}

// result returns the built list and whether it is base itself.
func (l *lazyList[T]) result() ([]T, bool) {
	if l.copied {
		return l.out, false
	}
	return l.base[:l.n:l.n], l.n == len(l.base)
}

// SetMemClauses replaces the memory clauses with entries, which must be in
// MemEntries order without repeating a region; the predicate keeps the
// slice, so the caller must not modify it afterwards. It is the one-pass
// install of a decoder: a list out of order is an error, not a predicate.
func (p *Pred) SetMemClauses(entries []MemEntry) error {
	for i := 1; i < len(entries); i++ {
		if cmpMem(entries[i-1], entries[i]) >= 0 {
			return fmt.Errorf("memory clause %d ([%s,%d]) out of canonical order", i, entries[i].Addr, entries[i].Size)
		}
	}
	p.mem = entries
	return nil
}

// SetRangeClauses replaces the interval clauses with clauses, which must be
// in Ranges order without repeating an expression, each one a clause
// AddRange stores as given; the predicate keeps the slice as its rest (no
// clause is its own list's), so the caller must not modify it afterwards. It is the one-pass install of a decoder:
// a list out of order, or a clause AddRange would drop, reduce to ⊥ or
// move onto its atom, is an error, not a predicate.
func (p *Pred) SetRangeClauses(clauses []RangeClause) error {
	for i, c := range clauses {
		if i > 0 && cmpRange(clauses[i-1], c) >= 0 {
			return fmt.Errorf("interval clause %d (%s) out of canonical order", i, c.E)
		}
		if !storedAsGiven(c.E, c.R) {
			return fmt.Errorf("interval clause %d (%s in [%#x, %#x]) is not in stored form", i, c.E, c.R.Lo, c.R.Hi)
		}
	}
	p.setRanges(nil, clauses)
	return nil
}
