package memmodel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/solver"
)

// referenceJoin is Join as it was before it classified trees in stack
// scratch: a region map for the union-find, one slice per class, and one
// combined forest per one-sided candidate. Join must return a forest
// SameOrdered with its result, and nil exactly when it does.
func referenceJoin(m0, m1 Forest) Forest {
	if SameOrdered(m0, m1) {
		return m1
	}
	trees := append(append([]*Tree{}, m0...), m1...)
	if len(trees) == 0 {
		return nil
	}

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

	type class struct {
		trees []*Tree
		sides [2]bool
	}
	var classes []class
	index := make([]int, len(trees))
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
			if t := referenceJoinClass(c.trees); t != nil && referenceTreeNecessary(t) {
				oneSided = append(oneSided, t)
			}
			continue
		}
		if t := referenceJoinClass(c.trees); t != nil {
			out = append(out, t)
		}
	}
	for _, t := range oneSided {
		ok := true
		for _, u := range append(append(Forest{}, out...), oneSided...) {
			if u == t {
				continue
			}
			if !referenceNecessarilySeparate(t, u) {
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

// referenceTreeNecessary is treeNecessary over referenceNecessarilySeparate.
func referenceTreeNecessary(t *Tree) bool {
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
		if !enc || !referenceTreeNecessary(kid) {
			return false
		}
		for j := i + 1; j < len(t.Kids); j++ {
			if !referenceNecessarilySeparate(kid, t.Kids[j]) {
				return false
			}
		}
	}
	return true
}

// referenceNecessarilySeparate collects both trees' regions before
// comparing them.
func referenceNecessarilySeparate(t, u *Tree) bool {
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

// referenceJoinClass is joinClass joining the child models with
// referenceJoin.
func referenceJoinClass(class []*Tree) *Tree {
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
		kids = referenceJoin(kids, t.Kids)
	}
	return &Tree{Regions: node, Kids: kids}
}

// fuzzRegions is the region pool FuzzJoinMatchesReference draws from:
// stack slots (same base, so their relations are geometric tautologies and
// one-sided classes of them can survive), two argument bases and a global,
// with enclosing and enclosed sizes so that nested trees make sense.
var fuzzRegions = func() []solver.Region {
	var rs []solver.Region
	for _, off := range []int64{-8, -16, -24, -32} {
		rs = append(rs, reg(rsp(off), 8))
	}
	rs = append(rs, reg(rsp(-16), 16), reg(rsp(-12), 4), reg(rsp(-32), 32))
	for _, base := range []expr.Var{"rdi0", "rsi0"} {
		rs = append(rs, reg(expr.V(base), 8), reg(expr.V(base), 4),
			reg(expr.Add(expr.V(base), expr.Word(8)), 8), reg(expr.V(base), 16))
	}
	rs = append(rs, reg(expr.Word(0x601000), 8), reg(expr.Word(0x601000), 16), reg(expr.Word(0x601008), 8))
	return rs
}()

// fuzzForests reads two forests from b. Each byte it reads decides one
// thing: a forest's size, a tree's region count, a region from
// fuzzRegions, whether a tree has children, and whether m1 reuses one of
// m0's trees by pointer (so that classes share subtrees, and equal
// operands take Join's fast path). Trees may alias or overlap in ways Ins
// never builds; Join and the reference must still agree. The two forests
// together may hold more than joinStack trees, so the heap fallback is
// fuzzed too.
func fuzzForests(b []byte) (m0, m1 Forest) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return int(c)
	}
	var built []*Tree
	var forest func(depth, maxTrees int) Forest
	forest = func(depth, maxTrees int) Forest {
		n := next() % (maxTrees + 1)
		if n == 0 {
			return nil
		}
		f := make(Forest, 0, n)
		for i := 0; i < n; i++ {
			c := next()
			if depth == 0 && c&0x80 != 0 && len(built) > 0 {
				f = append(f, built[c%len(built)])
				continue
			}
			t := &Tree{Regions: make([]solver.Region, c%3+1)}
			if c%17 == 0 {
				t.Regions = nil // a tree without regions joins to nothing
			}
			for j := range t.Regions {
				t.Regions[j] = fuzzRegions[next()%len(fuzzRegions)]
			}
			if depth < 2 && c&0x40 != 0 {
				t.Kids = forest(depth+1, 3)
			}
			if depth == 0 {
				built = append(built, t)
			}
			f = append(f, t)
		}
		return f
	}
	m0 = forest(0, joinStack*5/8)
	m1 = forest(0, joinStack*5/8)
	return m0, m1
}

// FuzzJoinMatchesReference: Join and referenceJoin return forests with the
// same trees in the same order, regions in the same order, and nil
// together, on forests over stack slots, argument bases and a global with
// one-sided and nested classes.
func FuzzJoinMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 3, 0, 1, 3, 0},                           // equal models: the fast path
		{2, 3, 0, 3, 1, 2, 3, 1, 3, 0},               // two slots in opposite orders
		{2, 3, 0, 3, 1, 1, 3, 0},                     // a one-sided slot survives
		{2, 3, 7, 3, 0, 1, 3, 0},                     // a one-sided argument is dropped
		{1, 3, 7, 1, 3, 11},                          // nothing survives: nil
		{1, 4, 7, 11, 1, 4, 7, 15},                   // alias nodes intersect
		{1, 66, 4, 1, 3, 1, 1, 66, 4, 1, 3, 0},       // children join: Example 3.13
		{2, 3, 0, 66, 4, 1, 3, 1, 2, 129, 128},       // m1 reuses m0's trees reversed
		{2, 17, 3, 0, 1, 3, 0},                       // a tree without regions
		{4, 2, 7, 8, 0, 1, 9, 16, 1, 14, 5, 3, 0, 1}, // mixed
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m0, m1 := fuzzForests(b)
		got, want := Join(m0, m1), referenceJoin(m0, m1)
		if (got == nil) != (want == nil) || !SameOrdered(got, want) {
			t.Fatalf("Join differs from the reference:\n m0=%v\n m1=%v\n got=%v (nil %v)\n want=%v (nil %v)",
				m0, m1, got, got == nil, want, want == nil)
		}
	})
}

// TestJoinAllocatesOnlyItsResult: joining two 8-tree single-region forests
// in opposite orders builds eight two-tree classes, each joining to a new
// tree with a new region list, and allocates nothing but those and the
// returned forest.
func TestJoinAllocatesOnlyItsResult(t *testing.T) {
	var m0, m1 Forest
	for s := 0; s < 8; s++ {
		m0 = append(m0, Leaf(reg(rsp(int64(-8*(s+1))), 8)))
		m1 = append(Forest{Leaf(reg(rsp(int64(-8*(s+1))), 8))}, m1...)
	}
	j := Join(m0, m1)
	if want := referenceJoin(m0, m1); len(j) != 8 || !SameOrdered(j, want) {
		t.Fatalf("join: %v, want %v", j, want)
	}
	if n := testing.AllocsPerRun(100, func() { Join(m0, m1) }); n != 17 {
		t.Fatalf("join of reordered forests: %v allocs, want 17 (8 trees, 8 region lists, 1 forest)", n)
	}
}

// TestJoinAboveStackScratch: a join of more trees than joinStack takes its
// scratch from the heap and still matches the reference. Every fourth slot
// is in m0 only, and m1 alone holds an argument region; the argument is not
// necessarily separate from those slots, so none of the one-sided trees
// survives.
func TestJoinAboveStackScratch(t *testing.T) {
	var m0, m1 Forest
	for s := 0; s < joinStack; s++ {
		slot := reg(rsp(int64(-8*(s+1))), 8)
		m0 = append(m0, Leaf(slot))
		if s%4 != 0 {
			m1 = append(Forest{Leaf(slot)}, m1...)
		}
	}
	m1 = append(m1, Leaf(reg(expr.V("rdi0"), 8)))
	j, want := Join(m0, m1), referenceJoin(m0, m1)
	if len(m0)+len(m1) <= joinStack || len(j) != joinStack*3/4 || !SameOrdered(j, want) {
		t.Fatalf("join of %d trees: %d trees, want the reference's %d", len(m0)+len(m1), len(j), len(want))
	}
}
