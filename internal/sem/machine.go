package sem

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/solver"
	"repro/internal/x86"
)

// Config tunes the predicate transformer.
type Config struct {
	// MM configures memory-model insertion (forking / destroying).
	MM memmodel.Config
	// MaxTableEntries bounds jump-table enumeration: a bounded read from
	// read-only data produces one successor per entry up to this count.
	MaxTableEntries int
	// AssumeBaseSeparation enables the paper's implicit assumptions:
	// regions whose addresses share no symbolic base (stack vs arguments
	// vs globals) are assumed separate, and each such assumption is
	// recorded and exported as a proof obligation. Step 1 only: a machine
	// from NewCheckMachine assumes what its graph lists instead.
	AssumeBaseSeparation bool
	// SolverCache, when non-nil, memoizes solver verdicts across machines
	// (and, being concurrency-safe, across the pipeline's lift workers).
	// Caching is exact: verdicts are pure in the predicate's interval
	// clauses and the region pair. The separation assumptions layered on
	// top of the raw verdict are applied after the cache, so the recorded
	// assumption side effects are never skipped.
	SolverCache *solver.Cache
	// Facts, when non-nil, is the per-function fact table of the pointer
	// pre-pass (internal/ptr), consulted before the cache and the decision
	// procedure. Facts are scoped to one function's initial-state symbols
	// (rsp0, rdi0, …), so they live here — in the per-lift config — and
	// never in the cross-function SolverCache. Assumed facts (separation
	// hypotheses) are recorded as assumptions exactly like the machine's
	// own AssumeBaseSeparation ones. Step 1 only, like
	// AssumeBaseSeparation.
	Facts *solver.Facts
	// Tracer, when non-nil, receives a structured event per solver query
	// and per memory-model fork/destroy. Emission is nil-safe, so the
	// disabled (nil) tracer costs one pointer check per event site.
	Tracer *obs.Tracer
}

// DefaultConfig returns the configuration matching the paper's algorithm.
func DefaultConfig() Config {
	return Config{
		MM:                   memmodel.DefaultConfig(),
		MaxTableEntries:      256,
		AssumeBaseSeparation: true,
	}
}

// Machine symbolically executes instructions over symbolic states. It
// records the implicit assumptions it makes (separation between pointer
// provenances) into the set TrackAssumptions installed — "each and any
// implicit assumption made during HG generation is formalized and
// exported" (§5.2). A machine belongs to one goroutine.
type Machine struct {
	Img *image.Image
	Cfg Config

	own      map[string]bool // set by TrackAssumptions
	hyps     []string        // sorted; the hypotheses of NewCheckMachine
	curAddr  uint64
	nfresh   int
	counters Counters
	free     []*State // handed back by Recycle, reused by clone
}

// Counters tallies the solver and memory-model activity of one machine —
// the per-lift half of the pipeline's statistics record. A machine is used
// by a single goroutine, so the fields are plain integers; cross-worker
// totals are summed by the pipeline after each lift completes.
type Counters struct {
	// SolverQueries counts oracle comparisons issued during symbolic
	// execution; SolverHits counts those answered from the shared memo
	// cache (0 when no cache is configured).
	SolverQueries uint64
	SolverHits    uint64
	// Forks counts extra memory models produced by undecided insertions
	// (each Ins returning n models adds n−1); Destroys counts produced
	// models in which some region was destroyed.
	Forks    uint64
	Destroys uint64
	// FactHits counts oracle comparisons answered from the pointer
	// pre-pass fact table (0 without Config.Facts); Fallbacks counts
	// insertions that abandoned their forked models (fan-out past
	// MaxModels) and destroyed instead.
	FactHits  uint64
	Fallbacks uint64
}

// Add accumulates another counter record.
func (c *Counters) Add(o Counters) {
	c.SolverQueries += o.SolverQueries
	c.SolverHits += o.SolverHits
	c.Forks += o.Forks
	c.Destroys += o.Destroys
	c.FactHits += o.FactHits
	c.Fallbacks += o.Fallbacks
}

// Counters returns the machine's activity counters.
func (m *Machine) Counters() Counters { return m.counters }

// compare answers a solver query through the memo cache when one is
// configured, counting queries and hits.
func (m *Machine) compare(p *pred.Pred, r0, r1 solver.Region) solver.Result {
	m.counters.SolverQueries++
	var res solver.Result
	var hit bool
	if c := m.Cfg.SolverCache; c != nil {
		res, hit = c.Compare(p, r0, r1)
		if hit {
			m.counters.SolverHits++
		}
	} else {
		res = solver.Compare(p, r0, r1)
	}
	m.Cfg.Tracer.Solver(m.curAddr, hit)
	return res
}

// noteIns records the fork/destroy fan-out of one memory-model insertion,
// and whether the insertion fell back to destroying past MaxModels.
func (m *Machine) noteIns(results []memmodel.InsResult, fellBack bool) {
	if fellBack {
		m.counters.Fallbacks++
		m.Cfg.Tracer.Fallback(m.curAddr)
	}
	if len(results) > 1 {
		extra := uint64(len(results) - 1)
		m.counters.Forks += extra
		m.Cfg.Tracer.Fork(m.curAddr, extra)
	}
	for _, res := range results {
		if res.Destroyed {
			m.counters.Destroys++
			m.Cfg.Tracer.Destroy(m.curAddr)
		}
	}
}

// NewMachine returns a machine over the image.
func NewMachine(img *image.Image, cfg Config) *Machine {
	return &Machine{Img: img, Cfg: cfg}
}

// NewCheckMachine returns a Step-2 machine over the image, checking a graph
// under the hypotheses it exports. It records no assumption and applies
// neither the frame rule (cfg.AssumeBaseSeparation) nor a fact table
// (cfg.Facts): a region pair the decision procedure leaves undecided is
// separate exactly when hyps, which must be sorted, lists the
// SeparationAssumption of the pair at the current instruction. An empty
// list assumes nothing.
func NewCheckMachine(img *image.Image, cfg Config, hyps []string) *Machine {
	cfg.AssumeBaseSeparation = false
	cfg.Facts = nil
	return &Machine{Img: img, Cfg: cfg, hyps: hyps}
}

// Recycle hands a dead state back to the machine, whose next clone (in
// Step or CleanAfterCall) is built in it instead of a new allocation. The
// caller gives up st and st.Pred: nothing may refer to either afterwards.
// Recycle drops the state's clauses and memory model at once, so a state
// waiting for reuse keeps no clause list or forest alive.
func (m *Machine) Recycle(st *State) {
	*st.Pred = pred.Pred{}
	st.Mem = nil
	m.free = append(m.free, st)
}

// clone returns a copy of st that the caller owns, as State.Clone does,
// built in a recycled state when one is free.
func (m *Machine) clone(st *State) *State {
	n := len(m.free)
	if n == 0 {
		return st.Clone()
	}
	c := m.free[n-1]
	m.free[n-1] = nil // c is the caller's now: the slot must not keep it alive
	m.free = m.free[:n-1]
	*c.Pred = *st.Pred
	c.Mem = st.Mem
	return c
}

// TrackAssumptions makes the machine record every assumption it makes
// from now on into own (nil records none), and returns the set it
// recorded them into until now. The lifter gives each exploration its own
// set, so a graph lists every hypothesis its own steps make, also one an
// earlier exploration of the same code made first, and none that only a
// callee's steps make.
func (m *Machine) TrackAssumptions(own map[string]bool) map[string]bool {
	prev := m.own
	m.own = own
	return prev
}

func (m *Machine) assume(text string) {
	if m.own != nil {
		m.own[text] = true
	}
}

// listed reports whether the hypotheses of a check machine list the
// separation of r0 and r1 at the current instruction.
func (m *Machine) listed(r0, r1 solver.Region) bool {
	if len(m.hyps) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(m.hyps, SeparationAssumption(m.curAddr, r0, r1))
	return ok
}

// SeparationAssumption renders the hypothesis that the regions r0 and r1,
// compared at the instruction at addr, are separate: the text Step 1
// records in a graph's assumption list and Step 2 looks up there.
func SeparationAssumption(addr uint64, r0, r1 solver.Region) string {
	return fmt.Sprintf("@%x : [%s, %d] ASSUMED SEPARATE FROM [%s, %d]", addr, r0.Addr, r0.Size, r1.Addr, r1.Size)
}

// fresh returns a deterministic fresh variable: names depend only on the
// instruction address and the allocation sequence within the step, so an
// independent re-execution of the same instruction on the same state (the
// Step-2 triple checker) produces identical postconditions.
func (m *Machine) fresh() *expr.Expr {
	v := expr.V(expr.Var(fmt.Sprintf("v%x_%d", m.curAddr, m.nfresh)))
	m.nfresh++
	return v
}

// oracle adapts the solver to memory-model insertion, adding the
// provenance-separation assumptions of the paper.
type oracle struct {
	m *Machine
	s *State
}

// Compare answers a necessarily-relation query; an undecided pair is
// assumed separate when a hypothesis covers it. The pointer pre-pass fact
// table, when present, is consulted first: proven facts are
// predicate-independent (they short-circuit the cache and the decision
// procedure), and assumed facts record the same separation-assumption
// obligation AssumeBaseSeparation would, so the graph's assumption list
// stays honest about every hypothesis the lift rests on. A check machine
// has no facts and no frame rule; it assumes only what its list holds.
func (o oracle) Compare(r0, r1 solver.Region) solver.Result {
	if f, ok := o.m.Cfg.Facts.Lookup(r0, r1); ok {
		o.m.counters.FactHits++
		o.m.Cfg.Tracer.FactHit(o.m.curAddr)
		if f.Assumed {
			o.m.assume(SeparationAssumption(o.m.curAddr, r0, r1))
		}
		return f.Res
	}
	res := o.m.compare(o.s.Pred, r0, r1)
	switch {
	case res.Decided():
		return res
	case o.m.listed(r0, r1):
		return separate
	// The paper's implicit assumption covers only the local stack frame:
	// pointers not derived from rsp0 (arguments, globals, loaded values)
	// are assumed not to reach into it. Two non-stack pointers (e.g. the
	// rdi/rsi pair of Section 2) are never assumed apart — their unknown
	// relation forks the memory model.
	case o.m.Cfg.AssumeBaseSeparation && stackBased(r0.Addr) != stackBased(r1.Addr) &&
		disjointAtoms(r0.Addr, r1.Addr):
		o.m.assume(SeparationAssumption(o.m.curAddr, r0, r1))
		return separate
	}
	return res
}

// separate is the verdict of an assumed separation.
var separate = solver.Result{Separate: solver.Yes,
	Alias: solver.No, Enclosed: solver.No, Encloses: solver.No, Partial: solver.No}

// disjointAtoms reports whether the linear forms of the two addresses share
// no symbolic atom. Addresses sharing a base (e.g. rsp0 and rsp0+8·i) are
// never assumed apart — that is exactly the unknown-stack-offset case the
// paper rejects functions for. An address with no atoms (a global
// constant) counts as the distinguished "global" provenance.
func disjointAtoms(a0, a1 *expr.Expr) bool {
	atoms := func(a *expr.Expr) map[*expr.Expr]bool {
		s := map[*expr.Expr]bool{}
		expr.ToLinear(a).Terms(func(atom *expr.Expr, _ uint64) {
			s[atom] = true
		})
		return s
	}
	s0, s1 := atoms(a0), atoms(a1)
	for k := range s0 {
		if s1[k] {
			return false
		}
	}
	return true
}

// valState pairs a forked state with the value read in it.
type valState struct {
	st *State
	v  *expr.Expr
}

// regVal reads a register at the given width, materialising a deterministic
// fresh variable for unconstrained registers so later reads agree.
func (m *Machine) regVal(st *State, r x86.Reg, size int) *expr.Expr {
	full := st.Pred.Reg(r)
	if full == nil {
		full = m.fresh()
		st.Pred.SetReg(r, full)
	}
	return expr.ZExt(full, size)
}

// writeReg writes a value of the given width into a register with x86
// merge semantics: 64-bit replaces, 32-bit zero-extends, 8/16-bit merges
// into the low bits.
func (m *Machine) writeReg(st *State, r x86.Reg, size int, val *expr.Expr) {
	switch size {
	case 8:
		st.Pred.SetReg(r, val)
	case 4:
		st.Pred.SetReg(r, expr.ZExt(val, 4))
	default:
		old := m.regVal(st, r, 8)
		mask := expr.Mask8
		if size == 2 {
			mask = expr.Mask16
		}
		merged := expr.Or(expr.And(old, expr.Word(^mask)), expr.And(val, expr.Word(mask)))
		st.Pred.SetReg(r, merged)
	}
}

// addrOf evaluates a memory operand's address to a constant expression
// (never ⊥ thanks to register materialisation; cf. Definition 4.2's eval).
func (m *Machine) addrOf(st *State, o x86.Operand) *expr.Expr {
	if o.Base == x86.RIP {
		return expr.Word(uint64(o.Disp))
	}
	parts := []*expr.Expr{expr.Word(uint64(o.Disp))}
	if o.Base != x86.RegNone {
		parts = append(parts, m.regVal(st, o.Base, 8))
	}
	if o.Index != x86.RegNone {
		idx := m.regVal(st, o.Index, 8)
		parts = append(parts, expr.Mul(expr.Word(uint64(o.Scale)), idx))
	}
	return expr.Add(parts...)
}

// rval evaluates an operand, forking the state on memory reads.
func (m *Machine) rval(st *State, o x86.Operand) []valState {
	switch o.Kind {
	case x86.OpImm:
		// Immediates were sign-extended to 64 bits at decode time, which
		// matches x86 semantics for every consumer; width masking happens
		// at the operation.
		return []valState{{st, expr.Word(uint64(o.Imm))}}
	case x86.OpReg:
		return []valState{{st, m.regVal(st, o.Reg, o.Size)}}
	case x86.OpMem:
		addr := m.addrOf(st, o)
		return m.readMem(st, addr, o.Size)
	}
	return []valState{{st, m.fresh()}}
}

// writeOp writes a value to an operand, forking the state on memory
// writes.
func (m *Machine) writeOp(st *State, o x86.Operand, val *expr.Expr) []*State {
	switch o.Kind {
	case x86.OpReg:
		m.writeReg(st, o.Reg, o.Size, val)
		return []*State{st}
	case x86.OpMem:
		addr := m.addrOf(st, o)
		return m.writeMem(st, addr, o.Size, val)
	}
	return []*State{st}
}
