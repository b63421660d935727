// Package memmodel implements the memory models M of the paper
// (Section 3.2): forests of memory trees recording aliasing, separation and
// enclosure relations between symbolic memory regions.
//
//	MemTree ≔ {C × N} × Mem        Mem ≔ {MemTree}
//
// Two regions in the same node alias; children are enclosed in their
// parents; siblings are separate. Insertion (Definition 3.7) is
// nondeterministic: when the relation between the inserted region and an
// existing tree cannot be decided, one model per possible clean relation is
// produced, and regions that may partially overlap are destroyed
// (overapproximated to unknown contents).
package memmodel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/solver"
)

// Tree is one memory tree: a node of mutually aliasing regions plus a
// sub-forest of enclosed children. A tree is immutable once built, and so
// are its Regions and Kids slices: forests, states and joins share subtrees
// freely, and an operation that changes a tree builds a new one.
type Tree struct {
	Regions []solver.Region
	Kids    Forest
}

// Forest is a memory model: a set of mutually separate trees.
type Forest []*Tree

// NewRegion is a convenience constructor.
func NewRegion(addr *expr.Expr, size uint64) solver.Region {
	return solver.Region{Addr: addr, Size: size}
}

// regionKey renders a region for the canonical string forms (Forest.Key,
// Relations); identity checks and relation maps use RegionID instead.
func regionKey(r solver.Region) string {
	return fmt.Sprintf("%s#%d", r.Addr.Key(), r.Size)
}

// RegionID identifies a region exactly. Addresses are interned expressions,
// so the (address pointer, size) pair is a comparable value with the same
// equality as the rendered "addrKey#size" string, at no rendering cost. The
// semantics layer builds the same IDs from its predicate clauses to look up
// relation verdicts.
type RegionID struct {
	Addr *expr.Expr
	Size uint64
}

// IDOf returns the identity of a region.
func IDOf(r solver.Region) RegionID { return RegionID{Addr: r.Addr, Size: r.Size} }

// String renders the identity in the canonical "addrKey#size" form.
func (id RegionID) String() string {
	return fmt.Sprintf("%s#%d", id.Addr.Key(), id.Size)
}

// Leaf returns a single-region tree with no children.
func Leaf(r solver.Region) *Tree { return &Tree{Regions: []solver.Region{r}} }

// Key returns a canonical fingerprint of the forest (order-independent).
func (f Forest) Key() string {
	keys := make([]string, len(f))
	for i, t := range f {
		keys[i] = t.key()
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, " ") + "}"
}

func (t *Tree) key() string {
	rs := make([]string, len(t.Regions))
	for i, r := range t.Regions {
		rs[i] = regionKey(r)
	}
	sort.Strings(rs)
	s := "[" + strings.Join(rs, "≡")
	if len(t.Kids) > 0 {
		s += " " + t.Kids.Key()
	}
	return s + "]"
}

// String renders the model in the paper's notation.
func (f Forest) String() string { return f.Key() }

// Same reports whether two forests encode the same model. Structurally
// identical forests (same trees in the same order, regions pointer-equal —
// the common case at the exploration's fixed point, since states share
// their trees and joins preserve order) are detected without rendering
// anything; otherwise it falls back to the order-independent canonical Key.
func (f Forest) Same(g Forest) bool {
	if sameOrdered(f, g) {
		return true
	}
	return f.Key() == g.Key()
}

// sameOrdered reports whether two forests hold the same trees in the same
// order; a shared subtree compares by pointer.
func sameOrdered(f, g Forest) bool {
	if len(f) != len(g) {
		return false
	}
	for i, t := range f {
		u := g[i]
		if t == u {
			continue
		}
		if len(t.Regions) != len(u.Regions) {
			return false
		}
		for j, r := range t.Regions {
			if IDOf(r) != IDOf(u.Regions[j]) {
				return false
			}
		}
		if !sameOrdered(t.Kids, u.Kids) {
			return false
		}
	}
	return true
}

// AllRegions appends every region in the forest to dst and returns it.
func (f Forest) AllRegions(dst []solver.Region) []solver.Region {
	for _, t := range f {
		dst = append(dst, t.Regions...)
		dst = t.Kids.AllRegions(dst)
	}
	return dst
}

// HasRegion reports whether the forest contains a region with the same
// address and size.
func (f Forest) HasRegion(r solver.Region) bool {
	want := IDOf(r)
	for _, existing := range f.AllRegions(nil) {
		if IDOf(existing) == want {
			return true
		}
	}
	return false
}

// NumRegions counts the regions in the forest.
func (f Forest) NumRegions() int { return len(f.AllRegions(nil)) }

// Relation is one entry of R(M): an ordered pair of regions and the
// relation the model asserts between them.
type Relation struct {
	A, B solver.Region
	Op   string // "≡", "⋈" or "⪯"
}

// String renders the relation in the canonical key form used by
// Relations().
func (r Relation) String() string {
	if r.Op == "⪯" {
		return fmt.Sprintf("%s ⪯ %s", regionKey(r.A), regionKey(r.B))
	}
	return relKeyStr(r.A, r.B, r.Op)
}

// RelationsDetailed returns R(M) with structured entries.
func (f Forest) RelationsDetailed() []Relation {
	var out []Relation
	var walk func(f Forest)
	walk = func(f Forest) {
		for i, t := range f {
			for a := 0; a < len(t.Regions); a++ {
				for b := a + 1; b < len(t.Regions); b++ {
					out = append(out, Relation{A: t.Regions[a], B: t.Regions[b], Op: "≡"})
				}
			}
			for _, kid := range t.Kids.AllRegions(nil) {
				for _, top := range t.Regions {
					out = append(out, Relation{A: kid, B: top, Op: "⪯"})
				}
			}
			for j := i + 1; j < len(f); j++ {
				for _, a := range t.Kids.AllRegions(append([]solver.Region(nil), t.Regions...)) {
					for _, b := range f[j].Kids.AllRegions(append([]solver.Region(nil), f[j].Regions...)) {
						out = append(out, Relation{A: a, B: b, Op: "⋈"})
					}
				}
			}
			walk(t.Kids)
		}
	}
	walk(f)
	return out
}

// GeometricallyNecessary reports whether the relation holds in every
// concrete state regardless of any predicate — e.g. two stack slots at
// constant offsets are always separate.
func GeometricallyNecessary(r Relation) bool {
	v := solver.Compare(emptyPred, r.A, r.B)
	switch r.Op {
	case "≡":
		return v.Alias == solver.Yes
	case "⋈":
		return v.Separate == solver.Yes
	case "⪯":
		return v.Enclosed == solver.Yes || v.Alias == solver.Yes
	}
	return false
}

// Relations returns the set R(M) of region relations encoded by the model,
// as strings "a ≡ b", "a ⋈ b", "a ⪯ b" with operands in canonical order.
// It is used by tests of Lemma 3.11 (completeness of insertion).
func (f Forest) Relations() map[string]bool {
	out := map[string]bool{}
	var walk func(f Forest)
	walk = func(f Forest) {
		for i, t := range f {
			// Aliasing within a node.
			for a := 0; a < len(t.Regions); a++ {
				for b := a + 1; b < len(t.Regions); b++ {
					out[relKeyStr(t.Regions[a], t.Regions[b], "≡")] = true
				}
			}
			// Children enclosed in parents (any top region).
			for _, kid := range t.Kids.AllRegions(nil) {
				for _, top := range t.Regions {
					out[fmt.Sprintf("%s ⪯ %s", regionKey(kid), regionKey(top))] = true
				}
			}
			// Siblings separate (all regions pairwise).
			for j := i + 1; j < len(f); j++ {
				for _, a := range append(append([]solver.Region{}, t.Regions...), t.Kids.AllRegions(nil)...) {
					for _, b := range append(append([]solver.Region{}, f[j].Regions...), f[j].Kids.AllRegions(nil)...) {
						out[relKeyStr(a, b, "⋈")] = true
					}
				}
			}
			// Sibling children within the same parent are separate.
			walk(t.Kids)
		}
	}
	walk(f)
	return out
}

func relKeyStr(a, b solver.Region, op string) string {
	ka, kb := regionKey(a), regionKey(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	return fmt.Sprintf("%s %s %s", ka, op, kb)
}

// Holds implements Definition 3.9 for a concrete valuation: eval maps an
// address expression to a concrete address. Used by the soundness property
// tests. Returns false if some address cannot be evaluated.
func (f Forest) Holds(eval func(*expr.Expr) (uint64, bool)) bool {
	conc := func(r solver.Region) (lo, hi uint64, ok bool) {
		a, ok := eval(r.Addr)
		if !ok {
			return 0, 0, false
		}
		return a, a + r.Size, true
	}
	var treeHolds func(t *Tree) bool
	var forestHolds func(f Forest) bool
	treeHolds = func(t *Tree) bool {
		// All node regions alias.
		for i := 1; i < len(t.Regions); i++ {
			a0, h0, ok0 := conc(t.Regions[0])
			ai, hi2, oki := conc(t.Regions[i])
			if !ok0 || !oki || a0 != ai || h0 != hi2 {
				return false
			}
		}
		// Children enclosed.
		p0, p1, ok := conc(t.Regions[0])
		if !ok {
			return false
		}
		for _, kid := range t.Kids {
			k0, k1, ok := conc(kid.Regions[0])
			if !ok || k0 < p0 || k1 > p1 {
				return false
			}
		}
		return forestHolds(t.Kids)
	}
	forestHolds = func(f Forest) bool {
		for i, t := range f {
			if len(t.Regions) == 0 || !treeHolds(t) {
				return false
			}
			for j := i + 1; j < len(f); j++ {
				a0, h0, ok0 := conc(t.Regions[0])
				a1, h1, ok1 := conc(f[j].Regions[0])
				if !ok0 || !ok1 {
					return false
				}
				if !(h0 <= a1 || h1 <= a0) {
					return false
				}
			}
		}
		return true
	}
	return forestHolds(f)
}
