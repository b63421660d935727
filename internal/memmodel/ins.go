package memmodel

import (
	"slices"

	"repro/internal/solver"
)

// RelKind describes, for one model produced by insertion, how an existing
// region relates to the inserted region. The semantics layer uses it to
// update or invalidate the memory equality clauses of the predicate.
type RelKind uint8

// The relation kinds recorded per produced model.
const (
	RelSeparate   RelKind = iota // contents unaffected
	RelAlias                     // same region: contents replaced by the write
	RelEnclosedIn                // inserted region lies inside the existing one
	RelEncloses                  // existing region lies inside the inserted one
	RelDestroyed                 // possibly partially overlapping: contents unknown
)

// String renders the relation kind.
func (k RelKind) String() string {
	switch k {
	case RelSeparate:
		return "separate"
	case RelAlias:
		return "alias"
	case RelEnclosedIn:
		return "enclosed-in"
	case RelEncloses:
		return "encloses"
	default:
		return "destroyed"
	}
}

// InsResult is one nondeterministically produced memory model plus the
// relation of every pre-existing region to the inserted region in that
// model, keyed by the regions' interned identities.
type InsResult struct {
	Forest Forest
	Rel    map[RegionID]RelKind
}

// Oracle answers necessarily-relation queries between regions; the lifter
// implements it with the solver over the current predicate (the paper uses
// Z3 there).
type Oracle interface {
	Compare(r0, r1 solver.Region) solver.Result
}

// Config tunes the nondeterminism of insertion.
type Config struct {
	// ForkUnknown makes insertion produce one model per possible clean
	// relation when nothing is decided (the paper's nondeterministic
	// exploration). When false, undecided insertions destroy instead —
	// the ablation of Section "Design choices" in DESIGN.md.
	ForkUnknown bool
	// AssumePartialImpossible reflects the paper's observation that
	// compiler-generated code accesses structured regions: possible
	// partial overlaps do not generate an extra destroyed model when a
	// clean relation is also possible. Setting it to false adds the
	// destroy model whenever partial overlap cannot be excluded.
	AssumePartialImpossible bool
	// MaxModels bounds the fan-out of one insertion; beyond it the
	// insertion falls back to destroying (state-space control).
	MaxModels int
}

// DefaultConfig returns the configuration used by the paper's algorithm.
func DefaultConfig() Config {
	return Config{ForkUnknown: true, AssumePartialImpossible: true, MaxModels: 8}
}

// RelationsOf derives the relation of region r to every other region from
// the structure of a model that already contains r. Same node: alias;
// ancestor: r is enclosed in it; descendant: encloses; otherwise separate.
func RelationsOf(f Forest, r solver.Region) map[RegionID]RelKind {
	want := IDOf(r)
	rel := map[RegionID]RelKind{}
	f.eachRegion(func(reg solver.Region) {
		if id := IDOf(reg); id != want {
			rel[id] = RelSeparate
		}
	})
	path := pathTo(f, want, nil)
	if len(path) == 0 {
		return rel
	}
	node := path[len(path)-1]
	for _, reg := range node.Regions {
		if id := IDOf(reg); id != want {
			rel[id] = RelAlias
		}
	}
	for _, anc := range path[:len(path)-1] {
		for _, reg := range anc.Regions {
			rel[IDOf(reg)] = RelEnclosedIn
		}
	}
	node.Kids.eachRegion(func(reg solver.Region) { rel[IDOf(reg)] = RelEncloses })
	return rel
}

// pathTo appends to path the trees from a top-level tree of f down to the
// first node, depth first, that holds id; it returns nil if none does.
func pathTo(f Forest, id RegionID, path []*Tree) []*Tree {
	for _, t := range f {
		here := append(path, t)
		if hasID(t.Regions, id) {
			return here
		}
		if found := pathTo(t.Kids, id, here); found != nil {
			return found
		}
	}
	return nil
}

// Ins inserts region r into memory model f per Definition 3.7, returning
// the nondeterministic set of produced models. If the region is already
// present the model is unchanged and its relations are read off the
// structure.
func Ins(r solver.Region, f Forest, o Oracle, cfg Config) []InsResult {
	results, _ := InsCounted(r, f, o, cfg)
	return results
}

// InsCounted is Ins with the fallback made observable: the second result
// reports whether the insertion abandoned its forked models — either
// because nothing clean was derivable with forking disabled, or because the
// fan-out exceeded cfg.MaxModels — and destroyed instead. The fallback used
// to be silent, which made "why did this read degrade to unknown?"
// unanswerable from the outside; the semantics layer now counts it
// (sem.Counters.Fallbacks, obs memmodel.fallback).
func InsCounted(r solver.Region, f Forest, o Oracle, cfg Config) ([]InsResult, bool) {
	if f.HasRegion(r) {
		return []InsResult{{Forest: f, Rel: RelationsOf(f, r)}}, false
	}
	results := insTree(Leaf(r), f, o, cfg)
	if len(results) == 0 || len(results) > cfg.MaxModels {
		return []InsResult{destroy(Leaf(r), f, o)}, true
	}
	return results, false
}

// treeRel aggregates solver verdicts between the top nodes of t0 and t1.
type treeRel struct {
	alias, separate, enclosed, encloses, partial solver.Verdict
}

func compareTrees(t0, t1 *Tree, o Oracle) treeRel {
	// Start from the strongest claims and weaken per pair.
	agg := treeRel{
		alias: solver.No, separate: solver.Yes,
		enclosed: solver.No, encloses: solver.Yes, partial: solver.No,
	}
	anyEnclosedYes := false
	for _, r0 := range t0.Regions {
		for _, r1 := range t1.Regions {
			v := o.Compare(r0, r1)
			// alias: Yes if any pair necessarily aliases.
			if v.Alias == solver.Yes {
				agg.alias = solver.Yes
			} else if v.Alias == solver.Maybe && agg.alias == solver.No {
				agg.alias = solver.Maybe
			}
			// separate: needs all pairs separate.
			if v.Separate != solver.Yes && agg.separate == solver.Yes {
				agg.separate = v.Separate
			} else if v.Separate == solver.No {
				agg.separate = solver.No
			}
			// enclosed: Yes if necessarily inside some top region.
			if v.Enclosed == solver.Yes {
				anyEnclosedYes = true
			} else if v.Enclosed == solver.Maybe && agg.enclosed == solver.No {
				agg.enclosed = solver.Maybe
			}
			// encloses: needs all of t1's top inside t0.
			if v.Encloses != solver.Yes && agg.encloses == solver.Yes {
				agg.encloses = v.Encloses
			} else if v.Encloses == solver.No {
				agg.encloses = solver.No
			}
			if v.Partial == solver.Yes {
				agg.partial = solver.Yes
			} else if v.Partial == solver.Maybe && agg.partial == solver.No {
				agg.partial = solver.Maybe
			}
		}
	}
	if anyEnclosedYes {
		agg.enclosed = solver.Yes
	}
	return agg
}

// insTree is the recursive ins of Definition 3.7 extended with relation
// recording. t0 is the tree being inserted; f the current (sub-)model.
// Produced models share every tree the insertion leaves unchanged.
func insTree(t0 *Tree, f Forest, o Oracle, cfg Config) []InsResult {
	if len(f) == 0 {
		return []InsResult{{Forest: Forest{t0}, Rel: map[RegionID]RelKind{}}}
	}
	t1, rest := f[0], f[1:]
	rel := compareTrees(t0, t1, o)

	switch {
	case rel.alias == solver.Yes:
		return []InsResult{insAlias(t0, t1, rest)}
	case rel.separate == solver.Yes:
		return insSep(t0, t1, rest, o, cfg)
	case rel.enclosed == solver.Yes:
		return []InsResult{insEnc(t0, t1, rest, o, cfg)}
	case rel.encloses == solver.Yes:
		return insCon(t0, t1, rest, o, cfg)
	}

	if !cfg.ForkUnknown {
		return nil // caller falls back to destroy
	}

	// Nondeterministic fork: one model per possible clean relation.
	var out []InsResult
	if rel.alias == solver.Maybe {
		out = append(out, insAlias(t0, t1, rest))
	}
	if rel.separate == solver.Maybe {
		out = append(out, insSep(t0, t1, rest, o, cfg)...)
	}
	if rel.enclosed == solver.Maybe {
		out = append(out, insEnc(t0, t1, rest, o, cfg))
	}
	if rel.encloses == solver.Maybe {
		out = append(out, insCon(t0, t1, rest, o, cfg)...)
	}
	if rel.partial == solver.Maybe && !cfg.AssumePartialImpossible || rel.partial == solver.Yes {
		out = append(out, destroy(t0, f, o))
	}
	return out
}

// insAlias merges the nodes of t0 and t1; the children of both become
// children of the merged node. Existing top regions alias the write;
// existing children are enclosed by it.
func insAlias(t0, t1 *Tree, rest Forest) InsResult {
	rel := map[RegionID]RelKind{}
	merged := &Tree{}
	seen := map[RegionID]bool{}
	for _, r := range append(append([]solver.Region{}, t0.Regions...), t1.Regions...) {
		if id := IDOf(r); !seen[id] {
			seen[id] = true
			merged.Regions = append(merged.Regions, r)
		}
	}
	for _, r := range t1.Regions {
		rel[IDOf(r)] = RelAlias
	}
	merged.Kids = slices.Concat(t0.Kids, t1.Kids)
	t1.Kids.eachRegion(func(kid solver.Region) { rel[IDOf(kid)] = RelEncloses })
	out := append(Forest{merged}, rest...)
	rest.eachRegion(func(r solver.Region) { rel[IDOf(r)] = RelSeparate })
	return InsResult{Forest: out, Rel: rel}
}

// insSep keeps t1 untouched and recursively inserts t0 into the rest.
func insSep(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) []InsResult {
	subResults := insTree(t0, rest, o, cfg)
	out := make([]InsResult, 0, len(subResults))
	for _, sub := range subResults {
		rel := map[RegionID]RelKind{}
		for k, v := range sub.Rel {
			rel[k] = v
		}
		for _, r := range t1.Regions {
			rel[IDOf(r)] = RelSeparate
		}
		t1.Kids.eachRegion(func(r solver.Region) { rel[IDOf(r)] = RelSeparate })
		out = append(out, InsResult{
			Forest: append(Forest{t1}, sub.Forest...),
			Rel:    rel,
		})
	}
	return out
}

// insEnc inserts t0 into the sub-forest of t1. To keep the model count
// linear we commit to the first produced sub-model here; enclosure writes
// invalidate the enclosing region's contents anyway, so extra sub-models
// add no precision for the predicate.
func insEnc(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) InsResult {
	subResults := insTree(t0, t1.Kids, o, cfg)
	sub := subResults[0]
	rel := map[RegionID]RelKind{}
	for k, v := range sub.Rel {
		rel[k] = v
	}
	for _, r := range t1.Regions {
		rel[IDOf(r)] = RelEnclosedIn
	}
	nt := &Tree{Regions: t1.Regions, Kids: sub.Forest}
	rest.eachRegion(func(r solver.Region) { rel[IDOf(r)] = RelSeparate })
	return InsResult{Forest: append(Forest{nt}, rest...), Rel: rel}
}

// insCon makes t1 a child of t0 and recursively inserts the grown t0 into
// the rest of the model. t0's Kids may be shared, so the grown tree gets a
// copy with t1 appended.
func insCon(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) []InsResult {
	grown := &Tree{Regions: t0.Regions, Kids: slices.Concat(t0.Kids, Forest{t1})}
	inner := map[RegionID]RelKind{}
	for _, r := range t1.Regions {
		inner[IDOf(r)] = RelEncloses
	}
	t1.Kids.eachRegion(func(r solver.Region) { inner[IDOf(r)] = RelEncloses })
	subResults := insTree(grown, rest, o, cfg)
	out := make([]InsResult, 0, len(subResults))
	for _, sub := range subResults {
		rel := map[RegionID]RelKind{}
		for k, v := range sub.Rel {
			rel[k] = v
		}
		for k, v := range inner {
			rel[k] = v
		}
		out = append(out, InsResult{Forest: sub.Forest, Rel: rel})
	}
	return out
}

// destroy removes every tree that is not necessarily separate from t0 and
// marks its regions destroyed, then adds t0 as a fresh top-level tree
// (Section 1: partially overlapping regions are destroyed, reads from them
// produce unconstrained symbolic values).
func destroy(t0 *Tree, f Forest, o Oracle) InsResult {
	rel := map[RegionID]RelKind{}
	var kept Forest
	for _, t := range f {
		r := compareTrees(t0, t, o)
		if r.separate == solver.Yes {
			kept = append(kept, t)
			for _, reg := range t.Regions {
				rel[IDOf(reg)] = RelSeparate
			}
			t.Kids.eachRegion(func(reg solver.Region) { rel[IDOf(reg)] = RelSeparate })
			continue
		}
		for _, reg := range t.Regions {
			rel[IDOf(reg)] = RelDestroyed
		}
		t.Kids.eachRegion(func(reg solver.Region) { rel[IDOf(reg)] = RelDestroyed })
	}
	return InsResult{Forest: append(kept, t0), Rel: rel}
}
