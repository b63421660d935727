package sem

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/x86"
)

// Step is stepΣ(σ) for a single instruction (Definition 4.2): it applies
// the predicate transformer τ to the state and inserts the instruction's
// memory regions into the memory model, returning the nondeterministic set
// of successor symbolic states with their control effects. The input state
// is never mutated.
//
// Every outcome owns its state: its State and its pred.Pred are shared with
// no other outcome and not with the input (Step clones the input, and each
// fork clones all of its outcomes but the last; CleanAfterCall clones
// too). The memory forests and clause lists inside are immutable and may
// be shared. So a caller may keep an outcome's state, or write into it,
// without a copy: the explorer builds a join in the state of the work item
// that brought it. A clone is built in a state handed back by Recycle when
// one is free, and allocated otherwise; either way it owns its state.
func (m *Machine) Step(st *State, inst x86.Inst) ([]Outcome, error) {
	m.curAddr = inst.Addr
	m.nfresh = 0
	st = m.clone(st)
	ops := inst.Ops

	fall := func(states ...*State) []Outcome {
		out := make([]Outcome, len(states))
		for i, s := range states {
			out[i] = Outcome{State: s, Kind: KFall, Target: expr.Word(inst.Next())}
		}
		return out
	}

	// binaryALU implements dst ← f(dst, src) with flag policy.
	binaryALU := func(f func(a, b *expr.Expr, size int) *expr.Expr, setFlags func(s *State, a, b, res *expr.Expr, size int)) ([]Outcome, error) {
		size := ops[0].Size
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			for _, dv := range m.rval(sv.st, ops[0]) {
				res := f(dv.v, sv.v, size)
				for _, ns := range m.writeOp(dv.st, ops[0], res) {
					if setFlags != nil {
						setFlags(ns, dv.v, sv.v, res, size)
					}
					out = append(out, fall(ns)...)
				}
			}
		}
		return out, nil
	}

	switch inst.Mn {
	case x86.NOP, x86.ENDBR64:
		return fall(st), nil

	case x86.HLT, x86.UD2, x86.INT3:
		return []Outcome{{State: st, Kind: KHalt}}, nil

	case x86.SYSCALL:
		// Linux syscall: rax, rcx, r11 clobbered; flags destroyed.
		st.Pred.SetReg(x86.RAX, m.fresh())
		st.Pred.SetReg(x86.RCX, m.fresh())
		st.Pred.SetReg(x86.R11, m.fresh())
		st.Pred.ClearFlags()
		return fall(st), nil

	case x86.MOV:
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			out = append(out, fall(m.writeOp(sv.st, ops[0], sv.v)...)...)
		}
		return out, nil

	case x86.MOVZX:
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			out = append(out, fall(m.writeOp(sv.st, ops[0], sv.v)...)...)
		}
		return out, nil

	case x86.MOVSX, x86.MOVSXD:
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			v := expr.ZExt(expr.SExt(sv.v, ops[1].Size), ops[0].Size)
			out = append(out, fall(m.writeOp(sv.st, ops[0], v)...)...)
		}
		return out, nil

	case x86.LEA:
		addr := m.addrOf(st, ops[1])
		return fall(m.writeOp(st, ops[0], expr.ZExt(addr, ops[0].Size))...), nil

	case x86.ADD:
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr { return expr.ZExt(expr.Add(a, b), size) },
			func(s *State, a, b, res *expr.Expr, size int) { s.Pred.ClearFlags() })

	case x86.SUB:
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr { return expr.ZExt(expr.Sub(a, b), size) },
			func(s *State, a, b, res *expr.Expr, size int) { setFlagsCmp(s, a, b, size) })

	case x86.CMP:
		size := ops[0].Size
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			for _, dv := range m.rval(sv.st, ops[0]) {
				setFlagsCmp(dv.st, dv.v, sv.v, size)
				out = append(out, fall(dv.st)...)
			}
		}
		return out, nil

	case x86.TEST:
		size := ops[0].Size
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			for _, dv := range m.rval(sv.st, ops[0]) {
				setFlagsLogic(dv.st, expr.And(dv.v, sv.v), size)
				out = append(out, fall(dv.st)...)
			}
		}
		return out, nil

	case x86.AND:
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr { return expr.And(a, b) },
			func(s *State, a, b, res *expr.Expr, size int) { setFlagsLogic(s, res, size) })

	case x86.OR:
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr { return expr.Or(a, b) },
			func(s *State, a, b, res *expr.Expr, size int) { setFlagsLogic(s, res, size) })

	case x86.XOR:
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr { return expr.Xor(a, b) },
			func(s *State, a, b, res *expr.Expr, size int) { setFlagsLogic(s, res, size) })

	case x86.ADC, x86.SBB:
		cf := evalCond(st.Pred, x86.CondB)
		return binaryALU(
			func(a, b *expr.Expr, size int) *expr.Expr {
				carry := expr.Word(0)
				switch cf {
				case solver.Yes:
					carry = expr.Word(1)
				case solver.Maybe:
					return m.fresh()
				}
				if inst.Mn == x86.ADC {
					return expr.ZExt(expr.Add(a, b, carry), size)
				}
				return expr.ZExt(expr.Sub(expr.Sub(a, b), carry), size)
			},
			func(s *State, a, b, res *expr.Expr, size int) { s.Pred.ClearFlags() })

	case x86.NOT:
		var out []Outcome
		for _, dv := range m.rval(st, ops[0]) {
			res := expr.ZExt(expr.Not(dv.v), ops[0].Size)
			out = append(out, fall(m.writeOp(dv.st, ops[0], res)...)...)
		}
		return out, nil

	case x86.NEG:
		var out []Outcome
		for _, dv := range m.rval(st, ops[0]) {
			res := expr.ZExt(expr.Neg(dv.v), ops[0].Size)
			for _, ns := range m.writeOp(dv.st, ops[0], res) {
				setFlagsCmp(ns, expr.Word(0), dv.v, ops[0].Size)
				out = append(out, fall(ns)...)
			}
		}
		return out, nil

	case x86.INC, x86.DEC:
		var out []Outcome
		delta := expr.Word(1)
		for _, dv := range m.rval(st, ops[0]) {
			var res *expr.Expr
			if inst.Mn == x86.INC {
				res = expr.ZExt(expr.Add(dv.v, delta), ops[0].Size)
			} else {
				res = expr.ZExt(expr.Sub(dv.v, delta), ops[0].Size)
			}
			for _, ns := range m.writeOp(dv.st, ops[0], res) {
				ns.Pred.ClearFlags()
				out = append(out, fall(ns)...)
			}
		}
		return out, nil

	case x86.IMUL:
		return m.stepIMul(st, inst, fall)

	case x86.MUL, x86.DIV, x86.IDIV:
		return m.stepMulDiv(st, inst, fall)

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		return m.stepShift(st, inst, fall)

	case x86.BT, x86.BTS, x86.BTR, x86.BTC, x86.BSF, x86.BSR,
		x86.POPCNT, x86.XADD, x86.CMPXCHG, x86.BSWAP:
		return m.stepBits(st, inst, fall)

	case x86.MOVS, x86.STOS:
		return m.stepString(st, inst, fall)

	case x86.PUSH:
		var out []Outcome
		for _, sv := range m.rval(st, ops[0]) {
			s := sv.st
			rsp := expr.Sub(m.regVal(s, x86.RSP, 8), expr.Word(8))
			s.Pred.SetReg(x86.RSP, rsp)
			out = append(out, fall(m.writeMem(s, rsp, 8, sv.v)...)...)
		}
		return out, nil

	case x86.POP:
		rsp := m.regVal(st, x86.RSP, 8)
		var out []Outcome
		for _, sv := range m.readMem(st, rsp, 8) {
			s := sv.st
			s.Pred.SetReg(x86.RSP, expr.Add(rsp, expr.Word(8)))
			out = append(out, fall(m.writeOp(s, ops[0], sv.v)...)...)
		}
		return out, nil

	case x86.LEAVE:
		// mov rsp, rbp; pop rbp.
		rbp := m.regVal(st, x86.RBP, 8)
		st.Pred.SetReg(x86.RSP, rbp)
		var out []Outcome
		for _, sv := range m.readMem(st, rbp, 8) {
			s := sv.st
			s.Pred.SetReg(x86.RSP, expr.Add(rbp, expr.Word(8)))
			s.Pred.SetReg(x86.RBP, sv.v)
			out = append(out, fall(s)...)
		}
		return out, nil

	case x86.XCHG:
		var out []Outcome
		for _, av := range m.rval(st, ops[0]) {
			for _, bv := range m.rval(av.st, ops[1]) {
				for _, s1 := range m.writeOp(bv.st, ops[0], bv.v) {
					out = append(out, fall(m.writeOp(s1, ops[1], av.v)...)...)
				}
			}
		}
		return out, nil

	case x86.CBW, x86.CWDE, x86.CDQE:
		// Sign-extend the low half of the accumulator into its width.
		n := inst.Mn.Width()
		m.writeReg(st, x86.RAX, n, expr.SExt(m.regVal(st, x86.RAX, n/2), n/2))
		return fall(st), nil

	case x86.CWD, x86.CDQ, x86.CQO:
		// Fill rdx at the accumulator's width with its sign.
		n := inst.Mn.Width()
		a := expr.SExt(m.regVal(st, x86.RAX, n), n)
		m.writeReg(st, x86.RDX, n, expr.Sar(a, expr.Word(63)))
		return fall(st), nil

	case x86.SETCC:
		var v *expr.Expr
		switch evalCond(st.Pred, inst.Cond) {
		case solver.Yes:
			v = expr.Word(1)
		case solver.No:
			v = expr.Word(0)
		default:
			v = m.fresh()
			st.Pred.AddRange(v, boolRange)
		}
		return fall(m.writeOp(st, ops[0], v)...), nil

	case x86.CMOVCC:
		switch evalCond(st.Pred, inst.Cond) {
		case solver.No:
			return fall(st), nil
		case solver.Yes:
			var out []Outcome
			for _, sv := range m.rval(st, ops[1]) {
				out = append(out, fall(m.writeOp(sv.st, ops[0], sv.v)...)...)
			}
			return out, nil
		}
		// Undecided: fork, refining each side.
		moved := m.clone(st)
		refineBranch(moved, inst.Cond, true)
		refineBranch(st, inst.Cond, false)
		out := fall(st)
		for _, sv := range m.rval(moved, ops[1]) {
			out = append(out, fall(m.writeOp(sv.st, ops[0], sv.v)...)...)
		}
		return out, nil

	case x86.JMP:
		if tgt, ok := inst.Target(); ok {
			return []Outcome{{State: st, Kind: KJump, Target: expr.Word(tgt)}}, nil
		}
		var out []Outcome
		for _, sv := range m.rval(st, ops[0]) {
			out = append(out, Outcome{State: sv.st, Kind: KJump, Target: sv.v})
		}
		return out, nil

	case x86.JCC:
		tgt, _ := inst.Target()
		switch evalCond(st.Pred, inst.Cond) {
		case solver.Yes:
			return []Outcome{{State: st, Kind: KJump, Target: expr.Word(tgt)}}, nil
		case solver.No:
			return fall(st), nil
		}
		taken := m.clone(st)
		refineBranch(taken, inst.Cond, true)
		refineBranch(st, inst.Cond, false)
		return []Outcome{
			{State: taken, Kind: KJump, Target: expr.Word(tgt)},
			{State: st, Kind: KFall, Target: expr.Word(inst.Next())},
		}, nil

	case x86.CALL:
		if tgt, ok := inst.Target(); ok {
			return []Outcome{{State: st, Kind: KCall, Target: expr.Word(tgt)}}, nil
		}
		var out []Outcome
		for _, sv := range m.rval(st, ops[0]) {
			out = append(out, Outcome{State: sv.st, Kind: KCall, Target: sv.v})
		}
		return out, nil

	case x86.RET:
		rsp := m.regVal(st, x86.RSP, 8)
		extra := uint64(0)
		if len(ops) == 1 {
			extra = uint64(ops[0].Imm)
		}
		var out []Outcome
		for _, sv := range m.readMem(st, rsp, 8) {
			s := sv.st
			s.Pred.SetReg(x86.RSP, expr.Add(rsp, expr.Word(8+extra)))
			out = append(out, Outcome{State: s, Kind: KRet, Target: sv.v})
		}
		return out, nil
	}
	return nil, fmt.Errorf("sem: no semantics for %s at %#x", inst.String(), inst.Addr)
}
