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

// Region returns the region the identity names.
func (id RegionID) Region() solver.Region { return solver.Region{Addr: id.Addr, Size: id.Size} }

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
		rs[i] = IDOf(r).String()
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
	if SameOrdered(f, g) {
		return true
	}
	return f.Key() == g.Key()
}

// SameOrdered reports whether two forests hold the same trees in the same
// order; a shared subtree compares by pointer. Such forests encode the
// same relations, so a check that holds for one holds for the other.
func SameOrdered(f, g Forest) bool {
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
		if !SameOrdered(t.Kids, u.Kids) {
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

// eachRegion calls visit on every region of the forest, in AllRegions
// order, without collecting them.
func (f Forest) eachRegion(visit func(solver.Region)) {
	for _, t := range f {
		t.eachRegion(visit)
	}
}

// eachRegion calls visit on the tree's node regions, then on every region
// below it.
func (t *Tree) eachRegion(visit func(solver.Region)) {
	for _, r := range t.Regions {
		visit(r)
	}
	t.Kids.eachRegion(visit)
}

// HasRegion reports whether the forest contains a region with the same
// address and size.
func (f Forest) HasRegion(r solver.Region) bool { return f.treeOf(IDOf(r)) >= 0 }

// treeOf returns the index of the tree of f that holds the region id, in
// its node or below it, or -1.
func (f Forest) treeOf(id RegionID) int {
	for i, t := range f {
		if hasID(t.Regions, id) || t.Kids.treeOf(id) >= 0 {
			return i
		}
	}
	return -1
}

// NumRegions counts the regions in the forest.
func (f Forest) NumRegions() int { return len(f.AllRegions(nil)) }

// RelOp is the kind of one entry of R(M).
type RelOp uint8

// The relations a model asserts between two of its regions.
const (
	OpAlias    RelOp = iota // A ≡ B: both regions sit in one node
	OpSeparate              // A ⋈ B: the regions sit in different sibling subtrees
	OpEnclosed              // A ⪯ B: B sits in a node above A's
)

// String renders the operator in the paper's notation.
func (op RelOp) String() string {
	switch op {
	case OpAlias:
		return "≡"
	case OpSeparate:
		return "⋈"
	default:
		return "⪯"
	}
}

// Relation is one entry of R(M): an ordered pair of region identities and
// the relation the model asserts between them. ≡ and ⋈ are symmetric, so a
// RelationSet matches them in either order; ⪯ reads "A is enclosed in B".
type Relation struct {
	A, B RegionID
	Op   RelOp
}

// String renders the relation in its canonical form: "a ⪯ b" in order,
// and the symmetric relations with their operands in key order. Nothing
// but failure reasons and diagnostics renders a relation.
func (r Relation) String() string {
	ka, kb := r.A.String(), r.B.String()
	if r.Op != OpEnclosed && ka > kb {
		ka, kb = kb, ka
	}
	return ka + " " + r.Op.String() + " " + kb
}

// Relations returns R(M), the relations the model asserts, in a fixed
// order: for each tree, the aliases within its node, every region below
// the node enclosed in each node region, every region of the tree separate
// from every region of each later sibling tree, then the same for its
// children.
func (f Forest) Relations() []Relation {
	var out []Relation
	f.EachRelation(func(r Relation) { out = append(out, r) })
	return out
}

// RelationSet is R(M) as a set, keyed by value.
type RelationSet map[Relation]struct{}

// RelationSet returns R(M) as a set.
func (f Forest) RelationSet() RelationSet {
	s := RelationSet{}
	f.EachRelation(func(r Relation) { s[r] = struct{}{} })
	return s
}

// Has reports whether the set holds r, matching ≡ and ⋈ in either operand
// order.
func (s RelationSet) Has(r Relation) bool {
	if _, ok := s[r]; ok {
		return true
	}
	if r.Op == OpEnclosed {
		return false
	}
	_, ok := s[Relation{A: r.B, B: r.A, Op: r.Op}]
	return ok
}

// EachRelation calls fn on every relation of R(M), in Relations order,
// without collecting them.
func (f Forest) EachRelation(fn func(Relation)) {
	for i, t := range f {
		for a, ra := range t.Regions {
			for _, rb := range t.Regions[a+1:] {
				fn(Relation{A: IDOf(ra), B: IDOf(rb), Op: OpAlias})
			}
		}
		t.Kids.eachRegion(func(kid solver.Region) {
			for _, top := range t.Regions {
				fn(Relation{A: IDOf(kid), B: IDOf(top), Op: OpEnclosed})
			}
		})
		for _, u := range f[i+1:] {
			t.eachRegion(func(a solver.Region) {
				u.eachRegion(func(b solver.Region) {
					fn(Relation{A: IDOf(a), B: IDOf(b), Op: OpSeparate})
				})
			})
		}
		t.Kids.EachRelation(fn)
	}
}

// GeometricallyNecessary reports whether the relation holds in every
// concrete state regardless of any predicate — e.g. two stack slots at
// constant offsets are always separate.
func GeometricallyNecessary(r Relation) bool {
	v := solver.Compare(emptyPred, r.A.Region(), r.B.Region())
	switch r.Op {
	case OpAlias:
		return v.Alias == solver.Yes
	case OpSeparate:
		return v.Separate == solver.Yes
	default:
		return v.Enclosed == solver.Yes || v.Alias == solver.Yes
	}
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
