// Package ptr is the binary-level pointer-analysis pre-pass (after Verbeek
// et al.'s follow-up "Formally Verified Binary-level Pointer Analysis",
// arXiv 2501.17766): a whole-function abstract interpretation over the
// decoded CFG that classifies every statically addressable memory access by
// provenance base — the stack pointer, an argument/initial register, or a
// global constant — and turns the pairwise geometry of those accesses into
// a fact table (solver.Facts) the lifter consults before its decision
// procedure and before forking the memory model.
//
// The analysis produces two grades of fact:
//
//   - Proven facts: region pairs whose relation Compare decides under the
//     empty predicate. Only the constant-difference path decides there, and
//     that path never reads the predicate, so the verdict holds under every
//     predicate symbolic execution will ever carry — the soundness argument
//     is exactly "Compare is a pure function and we gave it strictly less
//     information".
//   - Separation hypotheses: pairs with provably distinct provenance bases
//     (rdi0 vs rsi0, global vs argument) that no sound procedure can decide.
//     These are the pairs that today fork the memory model to MaxModels or
//     destroy regions. A hypothesis is an assumption, not a theorem: the
//     semantics records it in the lifted graph's assumption list (the same
//     obligation format as AssumeBaseSeparation), and the whole table is
//     opt-in (core.Config.PointerFacts) because assuming rdi ⋈ rsi hides
//     deliberate aliasing like the Section 2 weird edge.
//
// The walker mirrors the fragment the semantics layer itself tracks: it
// follows registers holding initial-register-plus-constant or constant
// values through MOV/LEA/ADD/SUB/PUSH/POP/CALL and records index-free
// memory operands, because those are precisely the addresses sem.addrOf
// evaluates to insertable regions. Everything else soundly degrades to
// "unknown register", which records no region and claims nothing.
package ptr

import (
	"time"

	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/pred"
	"repro/internal/solver"
	"repro/internal/x86"
)

// Walk bounds: a function re-visits an instruction only when the abstract
// state at it weakened, so visits are bounded by insts × regs; the caps
// below are backstops for pathological inputs, far above anything the
// corpus reaches. maxRegions bounds the O(n²) pair stage.
const (
	maxVisits  = 65536
	maxRegions = 128
)

// Stats summarises one analysis for observability (obs.KPtrAnalyze).
type Stats struct {
	// Visits counts instruction visits of the fixpoint walk.
	Visits int
	// Regions counts distinct recorded regions.
	Regions int
	// Proven and Hypotheses count the facts by grade.
	Proven     int
	Hypotheses int
	// Truncated reports that the region cap was hit (facts remain sound —
	// coverage just stops growing).
	Truncated bool
	// Wall is the analysis time.
	Wall time.Duration
}

// Analysis is the result of the pre-pass for one function.
type Analysis struct {
	Facts *solver.Facts
	Stats Stats
}

// av is the abstract value of a register: unknown, a constant (base ==
// RegNone, value off), or initial-register-plus-constant (the initial value
// of register base, i.e. the symbol sem seeds as base.String()+"0").
type av struct {
	known bool
	base  x86.Reg
	off   int64
}

// absState maps the sixteen GPRs to abstract values. It is a comparable
// array so fixpoint detection is ==.
type absState [16]av

// initState seeds every register with its own initial value, mirroring
// sem.InitialState (rsp0, rdi0, …).
func initState() absState {
	var st absState
	for i := range st {
		st[i] = av{known: true, base: x86.Reg(i)}
	}
	return st
}

// join meets two abstract states: registers that disagree become unknown.
func join(a, b absState) absState {
	var out absState
	for i := range a {
		if a[i] == b[i] {
			out[i] = a[i]
		}
	}
	return out
}

// get reads a register's abstract value (unknown for RIP/RegNone).
func (s *absState) get(r x86.Reg) av {
	if int(r) < len(s) {
		return s[r]
	}
	return av{}
}

// set writes a register's abstract value.
func (s *absState) set(r x86.Reg, v av) {
	if int(r) < len(s) {
		s[r] = v
	}
}

// kill invalidates a register.
func (s *absState) kill(r x86.Reg) { s.set(r, av{}) }

// killAll invalidates every register — the sound default for instruction
// families the walker does not model.
func (s *absState) killAll() { *s = absState{} }

// walker carries the per-function analysis state.
type walker struct {
	img     *image.Image
	in      map[uint64]absState
	work    []uint64
	regions []solver.Region
	seen    map[regionID]bool
	stats   Stats
}

// regionID dedupes recorded regions by interned address identity.
type regionID struct {
	addr *expr.Expr
	size uint64
}

// Analyze runs the pre-pass over the function at entry and returns its fact
// table. The analysis never fails: undecodable or unmodelled code simply
// contributes no facts.
func Analyze(img *image.Image, entry uint64) *Analysis {
	start := time.Now()
	w := &walker{
		img:  img,
		in:   map[uint64]absState{entry: initState()},
		work: []uint64{entry},
		seen: map[regionID]bool{},
	}
	for len(w.work) > 0 && w.stats.Visits < maxVisits {
		addr := w.work[0]
		w.work = w.work[1:]
		st := w.in[addr]
		inst, err := img.Fetch(addr)
		if err != nil {
			continue
		}
		w.stats.Visits++
		w.record(&inst, &st)
		w.step(&inst, st)
	}

	facts := solver.NewFacts()
	p := pred.New()
	for i := 0; i < len(w.regions); i++ {
		for j := i + 1; j < len(w.regions); j++ {
			r0, r1 := w.regions[i], w.regions[j]
			res := solver.Compare(p, r0, r1)
			switch {
			case res.Decided():
				facts.Add(r0, r1, res, false)
			case disjointBases(r0.Addr, r1.Addr):
				facts.Add(r0, r1, solver.Result{Separate: solver.Yes,
					Alias: solver.No, Enclosed: solver.No, Encloses: solver.No,
					Partial: solver.No}, true)
			}
		}
	}
	w.stats.Regions = len(w.regions)
	w.stats.Proven = facts.Proven()
	w.stats.Hypotheses = facts.Hypotheses()
	w.stats.Wall = time.Since(start)
	return &Analysis{Facts: facts, Stats: w.stats}
}

// disjointBases reports whether the two single-base-or-constant addresses
// the walker builds have provably distinct provenance: different initial
// registers, or a global constant versus any register base. Same-base pairs
// never reach here (their difference is constant, so Compare decided them),
// but return false defensively.
func disjointBases(a0, a1 *expr.Expr) bool {
	b0, ok0 := solver.BaseAtom(a0)
	b1, ok1 := solver.BaseAtom(a1)
	switch {
	case ok0 && ok1:
		return b0 != b1
	case ok0 != ok1:
		// One symbolic base, one global constant: disjoint provenance.
		return true
	}
	return false
}

// addrAV evaluates a memory operand to an abstract address, mirroring the
// fragment of sem.addrOf that yields insertable regions: RIP-relative and
// absolute operands are constants; an index register is the eval-⊥ case.
func (w *walker) addrAV(st *absState, o x86.Operand) (av, bool) {
	if o.Base == x86.RIP {
		return av{known: true, base: x86.RegNone, off: o.Disp}, true
	}
	if o.Index != x86.RegNone {
		return av{}, false
	}
	if o.Base == x86.RegNone {
		return av{known: true, base: x86.RegNone, off: o.Disp}, true
	}
	b := st.get(o.Base)
	if !b.known {
		return av{}, false
	}
	return av{known: true, base: b.base, off: b.off + o.Disp}, true
}

// addRegion records one access at abstract address a of the given size.
func (w *walker) addRegion(a av, size int) {
	if !a.known || size <= 0 {
		return
	}
	if len(w.regions) >= maxRegions {
		w.stats.Truncated = true
		return
	}
	var addr *expr.Expr
	if a.base == x86.RegNone {
		addr = expr.Word(uint64(a.off))
	} else {
		addr = expr.Add(expr.V(expr.Var(a.base.String()+"0")), expr.Word(uint64(a.off)))
	}
	id := regionID{addr: addr, size: uint64(size)}
	if w.seen[id] {
		return
	}
	w.seen[id] = true
	w.regions = append(w.regions, solver.Region{Addr: addr, Size: uint64(size)})
}

// record collects the memory regions an instruction accesses: explicit
// index-free memory operands (LEA computes an address but accesses
// nothing), plus the implicit stack accesses of PUSH/POP/CALL/RET/LEAVE.
func (w *walker) record(inst *x86.Inst, st *absState) {
	if inst.Mn != x86.LEA && inst.Mn != x86.NOP {
		for _, o := range inst.Ops {
			if o.Kind != x86.OpMem {
				continue
			}
			if a, ok := w.addrAV(st, o); ok {
				w.addRegion(a, o.Size)
			}
		}
	}
	rsp := st.get(x86.RSP)
	switch inst.Mn {
	case x86.PUSH, x86.CALL:
		if rsp.known {
			w.addRegion(av{known: true, base: rsp.base, off: rsp.off - 8}, 8)
		}
	case x86.POP, x86.RET:
		w.addRegion(rsp, 8)
	case x86.LEAVE:
		if rbp := st.get(x86.RBP); rbp.known {
			w.addRegion(rbp, 8)
		}
	}
}

// step applies the transfer function and enqueues successors.
func (w *walker) step(inst *x86.Inst, st absState) {
	ops := inst.Ops
	op0 := func() x86.Operand {
		if len(ops) > 0 {
			return ops[0]
		}
		return x86.Operand{}
	}
	op1 := func() x86.Operand {
		if len(ops) > 1 {
			return ops[1]
		}
		return x86.Operand{}
	}
	// killDst invalidates the destination register of a reg-writing form.
	killDst := func() {
		if o := op0(); o.Kind == x86.OpReg {
			st.kill(o.Reg)
		}
	}

	switch inst.Mn {
	case x86.NOP, x86.ENDBR64, x86.CMP, x86.TEST:
		// No register effects.
	case x86.MOV:
		d, s := op0(), op1()
		if d.Kind != x86.OpReg {
			break // memory destination: no register effect
		}
		switch {
		case s.Kind == x86.OpImm && d.Size >= 4 && s.Imm >= 0:
			// mov r64, imm / mov r32, imm≥0: full value known (32-bit
			// writes zero-extend, which matches for non-negative
			// immediates).
			st.set(d.Reg, av{known: true, base: x86.RegNone, off: s.Imm})
		case s.Kind == x86.OpReg && d.Size == 8 && s.Size == 8:
			st.set(d.Reg, st.get(s.Reg))
		default:
			st.kill(d.Reg)
		}
	case x86.LEA:
		d, s := op0(), op1()
		if d.Kind != x86.OpReg {
			break
		}
		if a, ok := w.addrAV(&st, s); ok && d.Size == 8 {
			st.set(d.Reg, a)
		} else {
			st.kill(d.Reg)
		}
	case x86.ADD, x86.SUB:
		d, s := op0(), op1()
		if d.Kind != x86.OpReg {
			break
		}
		v := st.get(d.Reg)
		var delta int64
		okDelta := false
		if s.Kind == x86.OpImm {
			delta, okDelta = s.Imm, true
		} else if s.Kind == x86.OpReg && s.Size == 8 {
			if sv := st.get(s.Reg); sv.known && sv.base == x86.RegNone {
				delta, okDelta = sv.off, true
			}
		}
		if v.known && okDelta && d.Size == 8 {
			if inst.Mn == x86.SUB {
				delta = -delta
			}
			st.set(d.Reg, av{known: true, base: v.base, off: v.off + delta})
		} else {
			st.kill(d.Reg)
		}
	case x86.INC, x86.DEC:
		d := op0()
		if d.Kind != x86.OpReg {
			break
		}
		if v := st.get(d.Reg); v.known && d.Size == 8 {
			delta := int64(1)
			if inst.Mn == x86.DEC {
				delta = -1
			}
			st.set(d.Reg, av{known: true, base: v.base, off: v.off + delta})
		} else {
			st.kill(d.Reg)
		}
	case x86.XOR:
		d, s := op0(), op1()
		if d.Kind == x86.OpReg && s.Kind == x86.OpReg && d.Reg == s.Reg && d.Size >= 4 {
			st.set(d.Reg, av{known: true, base: x86.RegNone}) // xor r, r ⇒ 0
		} else {
			killDst()
		}
	case x86.AND, x86.OR, x86.ADC, x86.SBB, x86.NOT, x86.NEG,
		x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR,
		x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.SETCC, x86.CMOVCC,
		x86.BT, x86.BTS, x86.BTR, x86.BTC, x86.BSF, x86.BSR,
		x86.POPCNT, x86.BSWAP:
		killDst()
	case x86.IMUL:
		if len(ops) >= 2 {
			killDst() // 2/3-operand form writes ops[0]
		} else {
			st.kill(x86.RAX)
			st.kill(x86.RDX)
		}
	case x86.MUL, x86.DIV, x86.IDIV:
		st.kill(x86.RAX)
		st.kill(x86.RDX)
	case x86.CBW, x86.CWDE, x86.CDQE:
		st.kill(x86.RAX)
	case x86.CWD, x86.CDQ, x86.CQO:
		st.kill(x86.RDX)
	case x86.XCHG:
		d, s := op0(), op1()
		if d.Kind == x86.OpReg && s.Kind == x86.OpReg && d.Size == 8 && s.Size == 8 {
			dv, sv := st.get(d.Reg), st.get(s.Reg)
			st.set(d.Reg, sv)
			st.set(s.Reg, dv)
		} else {
			if d.Kind == x86.OpReg {
				st.kill(d.Reg)
			}
			if s.Kind == x86.OpReg {
				st.kill(s.Reg)
			}
		}
	case x86.XADD, x86.CMPXCHG:
		killDst()
		st.kill(x86.RAX)
	case x86.PUSH:
		if rsp := st.get(x86.RSP); rsp.known {
			st.set(x86.RSP, av{known: true, base: rsp.base, off: rsp.off - 8})
		}
	case x86.POP:
		killDst() // the loaded value is not statically tracked
		if rsp := st.get(x86.RSP); rsp.known {
			st.set(x86.RSP, av{known: true, base: rsp.base, off: rsp.off + 8})
		}
	case x86.LEAVE:
		// mov rsp, rbp; pop rbp.
		if rbp := st.get(x86.RBP); rbp.known {
			st.set(x86.RSP, av{known: true, base: rbp.base, off: rbp.off + 8})
		} else {
			st.kill(x86.RSP)
		}
		st.kill(x86.RBP)
	case x86.MOVS, x86.STOS:
		st.kill(x86.RSI)
		st.kill(x86.RDI)
		st.kill(x86.RCX)
		st.kill(x86.RAX)
	case x86.CALL, x86.SYSCALL:
		// Across a call the caller-saved registers are unknown; rsp and the
		// callee-saved registers are preserved by the convention the lifter
		// itself verifies (CheckReturn).
		for _, r := range x86.CallerSaved {
			st.kill(r)
		}
	case x86.RET, x86.HLT, x86.UD2, x86.INT3:
		return // path ends
	case x86.JMP:
		if tgt, ok := inst.Target(); ok && w.img.InText(tgt) {
			w.flow(tgt, st)
		}
		return // direct out-of-text (PLT tail call) or indirect: path ends
	case x86.JCC:
		if tgt, ok := inst.Target(); ok && w.img.InText(tgt) {
			w.flow(tgt, st)
		}
		w.flow(inst.Next(), st)
		return
	default:
		// Unmodelled family: assume nothing survives.
		st.killAll()
	}
	w.flow(inst.Next(), st)
}

// flow propagates an abstract state into a successor, joining with any
// previous in-state and re-enqueueing on change.
func (w *walker) flow(addr uint64, st absState) {
	old, ok := w.in[addr]
	if !ok {
		w.in[addr] = st
		w.work = append(w.work, addr)
		return
	}
	j := join(old, st)
	if j != old {
		w.in[addr] = j
		w.work = append(w.work, addr)
	}
}
