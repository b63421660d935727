package memmodel

import (
	"repro/internal/pred"
	"repro/internal/solver"
)

// Join computes M0 ⊔ M1 per Definition 3.12. Memory trees from both models
// are partitioned into equivalence classes by the transitive closure of
// "shares a top-level region"; each class joins into one tree whose node is
// the intersection of the class's region sets and whose children are the
// join of the class's child models. Classes with an empty intersection are
// dropped, and — the sound reading of the definition that Lemma 3.14's
// proof relies on — so are classes represented in only one of the two
// operands: a relation survives the join only if both disjuncts established
// it.
//
// The output order is deterministic: classes in the order their first tree
// appears in m0 ++ m1, node regions in the order of the class's first tree.
// Two models with the same trees in the same order join to m1 itself, the
// common case at the exploration's fixed point; trees are immutable, so the
// result shares them.
func Join(m0, m1 Forest) Forest {
	if SameOrdered(m0, m1) {
		return m1
	}
	trees := append(append([]*Tree{}, m0...), m1...)
	if len(trees) == 0 {
		return nil
	}

	// Union-find over trees keyed by shared top-level regions.
	parent := make([]int, len(trees))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byRegion := map[RegionID]int{}
	for i, t := range trees {
		for _, r := range t.Regions {
			id := IDOf(r)
			if j, ok := byRegion[id]; ok {
				union(i, j)
			} else {
				byRegion[id] = i
			}
		}
	}

	// Classes in first-appearance order, each remembering which operands
	// back it.
	type class struct {
		trees []*Tree
		sides [2]bool
	}
	var classes []class
	index := make([]int, len(trees)) // union-find root → 1 + class index
	for i, t := range trees {
		root := find(i)
		if index[root] == 0 {
			classes = append(classes, class{})
			index[root] = len(classes)
		}
		c := &classes[index[root]-1]
		c.trees = append(c.trees, t)
		if i < len(m0) {
			c.sides[0] = true
		} else {
			c.sides[1] = true
		}
	}

	var out Forest
	var oneSided []*Tree
	for _, c := range classes {
		if !c.sides[0] || !c.sides[1] {
			// A class backed by only one operand encodes contingent
			// relations the other disjunct need not satisfy — unless the
			// relations are geometric tautologies (Example 3.13's two
			// same-base children), in which case they hold in every
			// state and may be kept.
			if t := joinClass(c.trees); t != nil && treeNecessary(t) {
				oneSided = append(oneSided, t)
			}
			continue
		}
		if t := joinClass(c.trees); t != nil {
			out = append(out, t)
		}
	}
	for _, t := range oneSided {
		ok := true
		for _, u := range append(append(Forest{}, out...), oneSided...) {
			if u == t {
				continue
			}
			if !necessarilySeparate(t, u) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// emptyPred answers relation queries with no predicate knowledge: only
// geometric tautologies (same-base constant offsets, global constants)
// decide.
var emptyPred = pred.New()

// treeNecessary reports whether every relation the tree encodes is
// necessarily true in all states: top regions pairwise alias, children
// enclosed in the top, sibling children separate, recursively.
func treeNecessary(t *Tree) bool {
	for i := 0; i < len(t.Regions); i++ {
		for j := i + 1; j < len(t.Regions); j++ {
			if solver.Compare(emptyPred, t.Regions[i], t.Regions[j]).Alias != solver.Yes {
				return false
			}
		}
	}
	for i, kid := range t.Kids {
		enc := false
		for _, kr := range kid.Regions {
			v := solver.Compare(emptyPred, kr, t.Regions[0])
			if v.Enclosed == solver.Yes || v.Alias == solver.Yes {
				enc = true
			}
		}
		if !enc || !treeNecessary(kid) {
			return false
		}
		for j := i + 1; j < len(t.Kids); j++ {
			if !necessarilySeparate(kid, t.Kids[j]) {
				return false
			}
		}
	}
	return true
}

// necessarilySeparate reports whether every region of t is geometrically
// separate from every region of u.
func necessarilySeparate(t, u *Tree) bool {
	tr := t.Kids.AllRegions(append([]solver.Region(nil), t.Regions...))
	ur := u.Kids.AllRegions(append([]solver.Region(nil), u.Regions...))
	for _, a := range tr {
		for _, b := range ur {
			if solver.Compare(emptyPred, a, b).Separate != solver.Yes {
				return false
			}
		}
	}
	return true
}

// joinClass implements joint(T): intersect the region sets, join the child
// models pairwise. The node keeps the first tree's region order; a class of
// one tree joins to that tree itself.
func joinClass(class []*Tree) *Tree {
	first := class[0]
	var node []solver.Region
	for i, r := range first.Regions {
		id := IDOf(r)
		if hasID(first.Regions[:i], id) {
			continue
		}
		inAll := true
		for _, t := range class[1:] {
			if !hasID(t.Regions, id) {
				inAll = false
				break
			}
		}
		if inAll {
			node = append(node, r)
		}
	}
	if len(node) == 0 {
		return nil
	}
	if len(class) == 1 && len(node) == len(first.Regions) {
		return first
	}
	kids := first.Kids
	for _, t := range class[1:] {
		kids = Join(kids, t.Kids)
	}
	return &Tree{Regions: node, Kids: kids}
}

// hasID reports whether some region of rs has the identity id.
func hasID(rs []solver.Region, id RegionID) bool {
	for _, r := range rs {
		if IDOf(r) == id {
			return true
		}
	}
	return false
}
