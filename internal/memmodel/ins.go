package memmodel

import (
	"slices"

	"repro/internal/solver"
)

// RelKind describes, for one model produced by insertion, how an existing
// region relates to the inserted region. The semantics layer uses it to
// update or invalidate the memory equality clauses of the predicate.
type RelKind uint8

// The relations InsResult.Rel reads off a produced model.
const (
	RelSeparate   RelKind = iota // contents unaffected
	RelAlias                     // same region: contents replaced by the write
	RelEnclosedIn                // inserted region lies inside the existing one
	RelEncloses                  // existing region lies inside the inserted one
	RelUnknown                   // not in the model (destroyed): contents unknown
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
		return "unknown"
	}
}

// InsResult is one nondeterministically produced memory model of an
// insertion: the forest, the inserted region, and whether the insertion
// destroyed some region of the input model (Destroyed is set exactly when
// a region of the input forest is missing from Forest). How a pre-existing
// region relates to the inserted one is not stored: Rel reads it off the
// forest.
type InsResult struct {
	Forest    Forest
	Region    solver.Region
	Destroyed bool
}

// Rel returns how the region id relates to the inserted region in this
// model, read off the forest's structure: id in the inserted region's node
// is RelAlias; id in a node above it is RelEnclosedIn (the inserted region
// lies inside id); id in a node below it is RelEncloses; id anywhere else
// is RelSeparate; and an id the model does not hold, because the insertion
// destroyed it or it was never inserted, is RelUnknown. The inserted
// region is its own alias. Rel walks the forest and allocates nothing.
func (res *InsResult) Rel(id RegionID) RelKind {
	ins := IDOf(res.Region)
	f := res.Forest
	for {
		i, j := f.treeOf(id), f.treeOf(ins)
		switch {
		case i < 0 || j < 0:
			return RelUnknown
		case i != j:
			return RelSeparate
		}
		t := f[i]
		hasSelf, hasIns := hasID(t.Regions, id), hasID(t.Regions, ins)
		switch {
		case hasSelf && hasIns:
			return RelAlias
		case hasSelf:
			return RelEnclosedIn
		case hasIns:
			return RelEncloses
		}
		f = t.Kids
	}
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
		return []InsResult{{Forest: f, Region: r}}, false
	}
	results := insTree(Leaf(r), f, o, cfg)
	fellBack := len(results) == 0 || len(results) > cfg.MaxModels
	if fellBack {
		results = []InsResult{destroy(Leaf(r), f, o)}
	}
	for i := range results {
		results[i].Region = r
	}
	return results, fellBack
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

// insTree is the recursive ins of Definition 3.7. t0 is the tree being
// inserted; f the current (sub-)model. Produced models share every tree
// the insertion leaves unchanged; InsCounted fills in their Region.
func insTree(t0 *Tree, f Forest, o Oracle, cfg Config) []InsResult {
	if len(f) == 0 {
		return []InsResult{{Forest: Forest{t0}}}
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
// children of the merged node.
func insAlias(t0, t1 *Tree, rest Forest) InsResult {
	merged := &Tree{Kids: slices.Concat(t0.Kids, t1.Kids)}
	for _, rs := range [2][]solver.Region{t0.Regions, t1.Regions} {
		for _, r := range rs {
			if !hasID(merged.Regions, IDOf(r)) {
				merged.Regions = append(merged.Regions, r)
			}
		}
	}
	return InsResult{Forest: append(Forest{merged}, rest...)}
}

// insSep keeps t1 untouched and recursively inserts t0 into the rest.
func insSep(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) []InsResult {
	out := insTree(t0, rest, o, cfg)
	for i := range out {
		out[i].Forest = append(Forest{t1}, out[i].Forest...)
	}
	return out
}

// insEnc inserts t0 into the sub-forest of t1. To keep the model count
// linear we commit to the first produced sub-model here; enclosure writes
// invalidate the enclosing region's contents anyway, so extra sub-models
// add no precision for the predicate.
func insEnc(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) InsResult {
	sub := insTree(t0, t1.Kids, o, cfg)[0]
	nt := &Tree{Regions: t1.Regions, Kids: sub.Forest}
	return InsResult{Forest: append(Forest{nt}, rest...), Destroyed: sub.Destroyed}
}

// insCon makes t1 a child of t0 and recursively inserts the grown t0 into
// the rest of the model. t0's Kids may be shared, so the grown tree gets a
// copy with t1 appended.
func insCon(t0, t1 *Tree, rest Forest, o Oracle, cfg Config) []InsResult {
	grown := &Tree{Regions: t0.Regions, Kids: slices.Concat(t0.Kids, Forest{t1})}
	return insTree(grown, rest, o, cfg)
}

// destroy removes every tree that is not necessarily separate from t0,
// then adds t0 as a fresh top-level tree (Section 1: partially overlapping
// regions are destroyed, reads from them produce unconstrained symbolic
// values).
func destroy(t0 *Tree, f Forest, o Oracle) InsResult {
	var kept Forest
	for _, t := range f {
		if compareTrees(t0, t, o).separate == solver.Yes {
			kept = append(kept, t)
		}
	}
	return InsResult{Forest: append(kept, t0), Destroyed: len(kept) < len(f)}
}
