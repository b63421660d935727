// Memory-model rules: forest well-formedness (Section 3.2). A memory
// model is a forest of trees — nodes of mutually aliasing regions with
// enclosed children, siblings separate. Well-formedness means: no empty
// nodes, no region recorded twice (a region has exactly one position in
// R(M)), enclosure is acyclic, no two live regions may necessarily
// partially overlap (Definition 3.7 destroys such regions at insertion),
// and no relation the model asserts is refuted by the solver under the
// vertex's own predicate.
//
// The five rules read a vertex's forest and, through the solver, its
// interval clauses, and nothing else. Vertices share their trees, so many
// vertices of one graph agree on both: each rule runs once per such class
// of vertices and replays its findings on every member.

package hglint

import (
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/memmodel"
	"repro/internal/solver"
)

func init() {
	Register(Rule{
		Name:     "mm-empty-tree",
		Severity: SevError,
		Doc:      "no memory tree node is empty",
		Check:    perMemClass(checkEmptyTree),
	})
	Register(Rule{
		Name:     "mm-dup-region",
		Severity: SevError,
		Doc:      "no region occurs twice in a memory forest",
		Check:    perMemClass(checkDupRegion),
	})
	Register(Rule{
		Name:     "mm-cycle",
		Severity: SevError,
		Doc:      "enclosure is acyclic: no region encloses itself",
		Check:    perMemClass(checkCycle),
	})
	Register(Rule{
		Name:     "mm-partial-overlap",
		Severity: SevError,
		Doc:      "no two live regions necessarily partially overlap",
		Check:    perMemClass(checkPartialOverlap),
	})
	Register(Rule{
		Name:     "mm-relation-refuted",
		Severity: SevError,
		Doc:      "no asserted region relation is refuted by the solver",
		Check:    perMemClass(checkRelationRefuted),
	})
}

// perVertexModel lifts a per-vertex check over every vertex that carries
// a state, in deterministic vertex order.
func perVertexModel(check func(ctx *Ctx, v *hoare.Vertex)) func(*Ctx) {
	return func(ctx *Ctx) {
		for _, v := range ctx.Vertices() {
			if v.State == nil {
				continue
			}
			check(ctx, v)
		}
	}
}

// perMemClass lifts a memory-model check over the memory classes: it runs
// the check on each class's first member and replays every finding on the
// other members, each with its own vertex and address.
func perMemClass(check func(ctx *Ctx, v *hoare.Vertex)) func(*Ctx) {
	return func(ctx *Ctx) {
		for _, class := range ctx.memClasses() {
			first := len(ctx.diags)
			check(ctx, class[0])
			last := len(ctx.diags)
			for _, v := range class[1:] {
				for i := first; i < last; i++ {
					d := ctx.diags[i]
					d.Vertex, d.Addr = string(v.ID), v.Addr
					ctx.diags = append(ctx.diags, d)
				}
			}
		}
	}
}

// memClasses partitions the vertices that carry a state into classes with
// the same forest, tree by tree (memmodel.SameOrdered), and the same
// interval clauses (pred.SameRanges), the only part of a predicate the
// solver reads. Members are listed in vertex order. Fingerprints of the
// two pick a bucket; membership is decided by the exact comparisons.
func (c *Ctx) memClasses() [][]*hoare.Vertex {
	if c.classesOK {
		return c.classes
	}
	type bucketKey struct{ ranges, forest uint64 }
	buckets := map[bucketKey][]int{}
	for _, v := range c.Vertices() {
		if v.State == nil {
			continue
		}
		k := bucketKey{v.State.Pred.RangesFingerprint(), forestFingerprint(v.State.Mem)}
		joined := false
		for _, i := range buckets[k] {
			rep := c.classes[i][0].State
			if memmodel.SameOrdered(rep.Mem, v.State.Mem) && rep.Pred.SameRanges(v.State.Pred) {
				c.classes[i] = append(c.classes[i], v)
				joined = true
				break
			}
		}
		if !joined {
			buckets[k] = append(buckets[k], len(c.classes))
			c.classes = append(c.classes, []*hoare.Vertex{v})
		}
	}
	c.classesOK = true
	return c.classes
}

// forestFingerprint hashes a forest's shape and region identities in
// order, so that forests memmodel.SameOrdered equates hash alike.
func forestFingerprint(f memmodel.Forest) uint64 {
	h := uint64(len(f))
	for _, t := range f {
		h = expr.MixFP(h, uint64(len(t.Regions)))
		for _, r := range t.Regions {
			h = expr.MixFP(expr.MixFP(h, r.Addr.Fingerprint()), r.Size)
		}
		h = expr.MixFP(h, forestFingerprint(t.Kids))
	}
	return h
}

func checkEmptyTree(ctx *Ctx, v *hoare.Vertex) {
	var walk func(f memmodel.Forest)
	walk = func(f memmodel.Forest) {
		for _, t := range f {
			if len(t.Regions) == 0 {
				ctx.Reportf(v.ID, v.Addr, "memory tree node has no regions")
			}
			walk(t.Kids)
		}
	}
	walk(v.State.Mem)
}

func checkDupRegion(ctx *Ctx, v *hoare.Vertex) {
	seen := map[memmodel.RegionID]bool{}
	for _, r := range v.State.Mem.AllRegions(nil) {
		id := memmodel.IDOf(r)
		if seen[id] {
			ctx.Reportf(v.ID, v.Addr, "region %s occurs twice in the memory forest", id)
		}
		seen[id] = true
	}
}

// checkCycle walks each tree with its ancestor path: a region that
// reappears below itself would make enclosure cyclic (a region enclosed
// in itself), which no concrete state can satisfy.
func checkCycle(ctx *Ctx, v *hoare.Vertex) {
	path := map[memmodel.RegionID]bool{}
	var walk func(f memmodel.Forest)
	walk = func(f memmodel.Forest) {
		for _, t := range f {
			cyclic := false
			for _, r := range t.Regions {
				if id := memmodel.IDOf(r); path[id] {
					ctx.Reportf(v.ID, v.Addr, "region %s is enclosed in itself", id)
					cyclic = true
				}
			}
			if cyclic {
				continue // don't recurse through an already-reported cycle
			}
			for _, r := range t.Regions {
				path[memmodel.IDOf(r)] = true
			}
			walk(t.Kids)
			for _, r := range t.Regions {
				delete(path, memmodel.IDOf(r))
			}
		}
	}
	walk(v.State.Mem)
}

// checkPartialOverlap asks the solver, under the vertex's own predicate,
// whether any pair of live regions necessarily partially overlaps.
// Definition 3.7 destroys possibly-partially-overlapping regions at
// insertion, so a surviving necessary overlap means the model tracks two
// regions no concrete state can hold simultaneously as separate objects.
func checkPartialOverlap(ctx *Ctx, v *hoare.Vertex) {
	regions := v.State.Mem.AllRegions(nil)
	p := v.State.Pred
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			res := ctx.Compare(p, regions[i], regions[j])
			if res.Partial == solver.Yes {
				ctx.Reportf(v.ID, v.Addr, "live regions %s and %s necessarily partially overlap",
					memmodel.IDOf(regions[i]), memmodel.IDOf(regions[j]))
			}
		}
	}
}

// checkRelationRefuted verifies every relation the model asserts is at
// least possible: an aliasing pair the solver proves non-aliasing, a
// separate pair it proves overlapping, or an enclosure it proves outside
// makes the model unsatisfiable — R(M) would hold in no concrete state.
func checkRelationRefuted(ctx *Ctx, v *hoare.Vertex) {
	p := v.State.Pred
	v.State.Mem.EachRelation(func(rel memmodel.Relation) {
		res := ctx.Compare(p, rel.A.Region(), rel.B.Region())
		refuted := false
		switch rel.Op {
		case memmodel.OpAlias:
			refuted = res.Alias == solver.No
		case memmodel.OpSeparate:
			refuted = res.Separate == solver.No
		case memmodel.OpEnclosed:
			// A child may sit anywhere inside its parent, including
			// exactly on top of it, so enclosure is refuted only when
			// both strict enclosure and aliasing are impossible.
			refuted = res.Enclosed == solver.No && res.Alias == solver.No
		}
		if refuted {
			ctx.Reportf(v.ID, v.Addr, "model asserts %s %s %s but the solver refutes it",
				rel.A, rel.Op, rel.B)
		}
	})
}
