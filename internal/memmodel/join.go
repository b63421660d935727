package memmodel

import (
	"slices"

	"repro/internal/pred"
	"repro/internal/solver"
)

// joinStack is how many trees, m0's and m1's together, Join classifies in
// stack buffers; a larger join takes its scratch from the heap. The largest
// join of Table 1 at scale 0.3 (seeds 1 to 3) has 33 trees, and the largest
// of CoreUtilsSuite(1.0), the ptr_ directory and the scenarios, with or
// without pointer facts, 30.
const joinStack = 64

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
// result shares them. Otherwise the result is a new forest, nil when no
// class survives, and the classes are found in scratch on the stack.
func Join(m0, m1 Forest) Forest {
	if SameOrdered(m0, m1) {
		return m1
	}
	n := len(m0) + len(m1)
	tree := func(i int) *Tree {
		if i < len(m0) {
			return m0[i]
		}
		return m1[i-len(m0)]
	}
	var parentBuf [joinStack]int
	var classBuf, outBuf, oneSidedBuf [joinStack]*Tree
	parent, class, out, oneSided := parentBuf[:0], classBuf[:0], outBuf[:0], oneSidedBuf[:0]
	if n > joinStack {
		parent, class, out, oneSided = make([]int, 0, n), make([]*Tree, 0, n), make(Forest, 0, n), make([]*Tree, 0, n)
	}
	parent = parent[:n]

	// Union-find over trees linked by a shared top-level region, found by
	// scanning the earlier trees. A class's root is its smallest index,
	// so every parent index is at most its child's.
	for i := range parent {
		parent[i] = i
		for j := 0; j < i; j++ {
			if sharesRegion(tree(i), tree(j)) {
				ri, rj := find(parent, i), find(parent, j)
				parent[max(ri, rj)] = min(ri, rj)
			}
		}
	}
	for i := range parent {
		parent[i] = parent[parent[i]] // the parent's parent is a root by now
	}

	// Classes in first-appearance order: a class starts at its root.
	for first := range parent {
		if parent[first] != first {
			continue
		}
		class = class[:0]
		var sides [2]bool
		for i := first; i < n; i++ {
			if parent[i] == first {
				class = append(class, tree(i))
				if i < len(m0) {
					sides[0] = true
				} else {
					sides[1] = true
				}
			}
		}
		if !sides[0] || !sides[1] {
			// A class backed by only one operand encodes contingent
			// relations the other disjunct need not satisfy — unless the
			// relations are geometric tautologies (Example 3.13's two
			// same-base children), in which case they hold in every
			// state and may be kept.
			if t := joinClass(class); t != nil && treeNecessary(t) {
				oneSided = append(oneSided, t)
			}
			continue
		}
		if t := joinClass(class); t != nil {
			out = append(out, t)
		}
	}

	// A one-sided tree is kept when it is necessarily separate from every
	// two-sided tree and every other one-sided candidate.
	twoSided := len(out)
	for _, t := range oneSided {
		if separateFromAll(t, out[:twoSided]) && separateFromAll(t, oneSided) {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// find returns the root of i's class, halving the path on the way.
func find(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// sharesRegion reports whether t and u have a top-level region in common.
func sharesRegion(t, u *Tree) bool {
	for _, r := range t.Regions {
		if hasID(u.Regions, IDOf(r)) {
			return true
		}
	}
	return false
}

// separateFromAll reports whether t is necessarily separate from every tree
// of us but itself.
func separateFromAll(t *Tree, us []*Tree) bool {
	for _, u := range us {
		if u != t && !necessarilySeparate(t, u) {
			return false
		}
	}
	return true
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
	sep := true
	t.eachRegion(func(a solver.Region) {
		u.eachRegion(func(b solver.Region) {
			if sep && solver.Compare(emptyPred, a, b).Separate != solver.Yes {
				sep = false
			}
		})
	})
	return sep
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
