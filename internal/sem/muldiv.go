package sem

import (
	"math/bits"

	"repro/internal/solver"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/x86"
)

// boolRange constrains an unknown boolean to {0, 1}.
var boolRange = pred.Range{Lo: 0, Hi: 1}

// stepIMul handles the one-, two- and three-operand imul forms.
func (m *Machine) stepIMul(st *State, inst x86.Inst, fall func(...*State) []Outcome) ([]Outcome, error) {
	ops := inst.Ops
	switch len(ops) {
	case 1:
		// rdx:rax ← rax · r/m (signed widening). The upper half is
		// overapproximated symbolically.
		size := ops[0].Size
		var out []Outcome
		for _, sv := range m.rval(st, ops[0]) {
			s := sv.st
			rax := m.regVal(s, x86.RAX, size)
			lo := expr.ZExt(expr.Mul(rax, sv.v), size)
			m.writeReg(s, x86.RAX, size, lo)
			m.writeReg(s, x86.RDX, size, m.fresh())
			s.Pred.ClearFlags()
			out = append(out, fall(s)...)
		}
		return out, nil
	case 2:
		size := ops[0].Size
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			s := sv.st
			dst := m.regVal(s, ops[0].Reg, size)
			res := expr.ZExt(expr.Mul(dst, sv.v), size)
			m.writeReg(s, ops[0].Reg, size, res)
			s.Pred.ClearFlags()
			out = append(out, fall(s)...)
		}
		return out, nil
	default: // 3-operand: dst ← src · imm
		size := ops[0].Size
		imm := expr.Word(uint64(ops[2].Imm))
		var out []Outcome
		for _, sv := range m.rval(st, ops[1]) {
			s := sv.st
			res := expr.ZExt(expr.Mul(sv.v, imm), size)
			m.writeReg(s, ops[0].Reg, size, res)
			s.Pred.ClearFlags()
			out = append(out, fall(s)...)
		}
		return out, nil
	}
}

// stepMulDiv handles the one-operand mul/div/idiv forms over rdx:rax.
func (m *Machine) stepMulDiv(st *State, inst x86.Inst, fall func(...*State) []Outcome) ([]Outcome, error) {
	size := inst.Ops[0].Size
	var out []Outcome
	for _, sv := range m.rval(st, inst.Ops[0]) {
		s := sv.st
		rax := m.regVal(s, x86.RAX, size)
		rdx := m.regVal(s, x86.RDX, size)
		switch inst.Mn {
		case x86.MUL:
			lo := expr.ZExt(expr.Mul(rax, sv.v), size)
			m.writeReg(s, x86.RAX, size, lo)
			m.writeReg(s, x86.RDX, size, m.fresh())
		case x86.DIV:
			// Precise when the dividend's upper half is zero (the common
			// xor edx, edx; div pattern).
			if rdx.IsWord(0) {
				m.writeReg(s, x86.RAX, size, expr.ZExt(expr.UDiv(rax, sv.v), size))
				m.writeReg(s, x86.RDX, size, expr.ZExt(expr.URem(rax, sv.v), size))
			} else {
				m.writeReg(s, x86.RAX, size, m.fresh())
				m.writeReg(s, x86.RDX, size, m.fresh())
			}
		case x86.IDIV:
			// Precise when rdx holds the sign extension of rax (the
			// cqo/cdq; idiv pattern).
			sext := expr.ZExt(expr.Sar(expr.SExt(rax, size), expr.Word(63)), size)
			if rdx.Equal(sext) {
				a := expr.SExt(rax, size)
				b := expr.SExt(sv.v, size)
				m.writeReg(s, x86.RAX, size, expr.ZExt(expr.SDiv(a, b), size))
				m.writeReg(s, x86.RDX, size, expr.ZExt(expr.SRem(a, b), size))
			} else {
				m.writeReg(s, x86.RAX, size, m.fresh())
				m.writeReg(s, x86.RDX, size, m.fresh())
			}
		}
		s.Pred.ClearFlags()
		out = append(out, fall(s)...)
	}
	return out, nil
}

// stepShift handles shl/shr/sar/rol/ror.
func (m *Machine) stepShift(st *State, inst x86.Inst, fall func(...*State) []Outcome) ([]Outcome, error) {
	ops := inst.Ops
	size := ops[0].Size
	countMask := uint64(63)
	if size < 8 {
		countMask = 31
	}
	var out []Outcome
	for _, cv := range m.rval(st, ops[1]) {
		for _, dv := range m.rval(cv.st, ops[0]) {
			var res *expr.Expr
			if c, ok := cv.v.AsWord(); ok {
				c &= countMask
				cw := expr.Word(c)
				switch inst.Mn {
				case x86.SHL:
					res = expr.ZExt(expr.Shl(dv.v, cw), size)
				case x86.SHR:
					res = expr.Shr(dv.v, cw) // operand already masked
				case x86.SAR:
					res = expr.ZExt(expr.Sar(expr.SExt(dv.v, size), cw), size)
				case x86.ROL:
					res = rotateSized(dv.v, c, size, true)
				case x86.ROR:
					res = rotateSized(dv.v, c, size, false)
				}
			} else {
				res = m.fresh()
			}
			for _, ns := range m.writeOp(dv.st, ops[0], res) {
				ns.Pred.ClearFlags()
				out = append(out, fall(ns)...)
			}
		}
	}
	return out, nil
}

// rotateSized rotates a size-byte value by c bits.
func rotateSized(v *expr.Expr, c uint64, size int, left bool) *expr.Expr {
	bits := uint64(size) * 8
	c %= bits
	if c == 0 {
		return v
	}
	if !left {
		c = bits - c
	}
	hi := expr.Shl(v, expr.Word(c))
	lo := expr.Shr(v, expr.Word(bits-c))
	return expr.ZExt(expr.Or(hi, lo), size)
}

// stepBits handles the bit-manipulation family: precise on constant
// operands, soundly havocked otherwise (the written part becomes a fresh
// unknown and the flags are cleared).
func (m *Machine) stepBits(st *State, inst x86.Inst, fall func(...*State) []Outcome) ([]Outcome, error) {
	ops := inst.Ops
	size := ops[0].Size
	var out []Outcome
	switch inst.Mn {
	case x86.BT, x86.BTS, x86.BTR, x86.BTC:
		for _, ov := range m.rval(st, ops[1]) {
			for _, dv := range m.rval(ov.st, ops[0]) {
				s := dv.st
				s.Pred.ClearFlags()
				v, vok := dv.v.AsWord()
				o, ook := ov.v.AsWord()
				var res *expr.Expr
				if vok && ook {
					off := o % (uint64(size) * 8)
					s.Pred.SetFlag(x86.CF, expr.Word(v>>off&1))
					switch inst.Mn {
					case x86.BTS:
						res = expr.Word(v | 1<<off)
					case x86.BTR:
						res = expr.Word(v &^ (1 << off))
					case x86.BTC:
						res = expr.Word(v ^ 1<<off)
					}
				} else if inst.Mn != x86.BT {
					res = m.fresh()
				}
				if inst.Mn == x86.BT {
					out = append(out, fall(s)...)
					continue
				}
				if res == nil {
					res = m.fresh()
				}
				out = append(out, fall(m.writeOp(s, ops[0], res)...)...)
			}
		}
		return out, nil

	case x86.BSF, x86.BSR:
		for _, sv := range m.rval(st, ops[1]) {
			s := sv.st
			var res *expr.Expr
			if w, ok := sv.v.AsWord(); ok && w != 0 {
				if inst.Mn == x86.BSF {
					res = expr.Word(uint64(bits.TrailingZeros64(w)))
				} else {
					res = expr.Word(uint64(bits.Len64(w) - 1))
				}
			} else {
				res = m.fresh()
				s.Pred.AddRange(res, pred.Range{Lo: 0, Hi: uint64(size)*8 - 1})
			}
			s.Pred.ClearFlags()
			m.writeReg(s, ops[0].Reg, size, res)
			out = append(out, fall(s)...)
		}
		return out, nil

	case x86.POPCNT:
		for _, sv := range m.rval(st, ops[1]) {
			s := sv.st
			var res *expr.Expr
			if w, ok := sv.v.AsWord(); ok {
				res = expr.Word(uint64(bits.OnesCount64(w)))
			} else {
				res = m.fresh()
				s.Pred.AddRange(res, pred.Range{Lo: 0, Hi: uint64(size) * 8})
			}
			s.Pred.ClearFlags()
			m.writeReg(s, ops[0].Reg, size, res)
			out = append(out, fall(s)...)
		}
		return out, nil

	case x86.XADD:
		for _, bv := range m.rval(st, ops[1]) {
			for _, av := range m.rval(bv.st, ops[0]) {
				s := av.st
				sum := expr.ZExt(expr.Add(av.v, bv.v), size)
				m.writeReg(s, ops[1].Reg, size, av.v)
				s.Pred.ClearFlags()
				out = append(out, fall(m.writeOp(s, ops[0], sum)...)...)
			}
		}
		return out, nil

	case x86.CMPXCHG:
		for _, sv := range m.rval(st, ops[1]) {
			for _, dv := range m.rval(sv.st, ops[0]) {
				s := dv.st
				acc := m.regVal(s, x86.RAX, size)
				aw, aok := acc.AsWord()
				dw, dok := dv.v.AsWord()
				if aok && dok {
					setFlagsCmp(s, acc, dv.v, size)
					if aw == dw {
						out = append(out, fall(m.writeOp(s, ops[0], sv.v)...)...)
					} else {
						m.writeReg(s, x86.RAX, size, dv.v)
						out = append(out, fall(s)...)
					}
					continue
				}
				// Undecided: fork both outcomes (overapproximation).
				eq := m.clone(s)
				setFlagsCmp(eq, acc, dv.v, size)
				out = append(out, fall(m.writeOp(eq, ops[0], sv.v)...)...)
				ne := s
				setFlagsCmp(ne, acc, dv.v, size)
				m.writeReg(ne, x86.RAX, size, dv.v)
				out = append(out, fall(ne)...)
			}
		}
		return out, nil

	default: // BSWAP
		for _, dv := range m.rval(st, ops[0]) {
			s := dv.st
			var res *expr.Expr
			if w, ok := dv.v.AsWord(); ok {
				if size == 8 {
					res = expr.Word(bits.ReverseBytes64(w))
				} else {
					res = expr.Word(uint64(bits.ReverseBytes32(uint32(w))))
				}
			} else {
				res = m.fresh()
			}
			m.writeReg(s, ops[0].Reg, size, res)
			out = append(out, fall(s)...)
		}
		return out, nil
	}
}

// stepString handles movs/stos with and without rep (the direction flag is
// assumed clear, as the System V ABI requires at function entry). A
// one-element form is an ordinary read/write pair. The rep forms write a
// block [rdi, rcx·size): soundly, every memory clause not provably
// separate from the block's maximal extent is invalidated — the inline
// memset/memcpy treatment. rsi/rdi/rcx are updated symbolically.
func (m *Machine) stepString(st *State, inst x86.Inst, fall func(...*State) []Outcome) ([]Outcome, error) {
	size := inst.Ops[0].Size
	esz := uint64(size)
	if !inst.Rep {
		var out []Outcome
		rdi := m.regVal(st, x86.RDI, 8)
		step := func(s *State, v *expr.Expr) {
			for _, ns := range m.writeMem(s, rdi, size, v) {
				ns.Pred.SetReg(x86.RDI, expr.Add(rdi, expr.Word(esz)))
				if inst.Mn == x86.MOVS {
					rsi := m.regVal(ns, x86.RSI, 8)
					ns.Pred.SetReg(x86.RSI, expr.Add(rsi, expr.Word(esz)))
				}
				out = append(out, fall(ns)...)
			}
		}
		if inst.Mn == x86.STOS {
			step(st, m.regVal(st, x86.RAX, size))
			return out, nil
		}
		rsi := m.regVal(st, x86.RSI, 8)
		for _, sv := range m.readMem(st, rsi, size) {
			step(sv.st, sv.v)
		}
		return out, nil
	}

	// rep movs/stos: bound the extent via the count's interval.
	rdi := m.regVal(st, x86.RDI, 8)
	rcx := m.regVal(st, x86.RCX, 8)
	extent, bounded := uint64(0), false
	if w, ok := rcx.AsWord(); ok {
		extent, bounded = w*esz, true
	} else if r, ok := st.Pred.RangeOf(rcx); ok && r.Hi < 1<<24 {
		extent, bounded = r.Hi*esz, true
	}
	switch {
	case bounded && extent == 0:
		// rcx = 0: no bytes move.
	case bounded:
		w := solver.Region{Addr: rdi, Size: extent}
		o := oracle{m, st}
		st.Pred.FilterMem(func(e pred.MemEntry) bool {
			return o.Compare(w, solver.Region{Addr: e.Addr, Size: uint64(e.Size)}).Separate == solver.Yes
		})
	default:
		// Unbounded block write: every clause may be hit.
		st.Pred.FilterMem(func(pred.MemEntry) bool { return false })
	}
	st.Pred.SetReg(x86.RDI, expr.Add(rdi, expr.Mul(rcx, expr.Word(esz))))
	if inst.Mn == x86.MOVS {
		rsi := m.regVal(st, x86.RSI, 8)
		st.Pred.SetReg(x86.RSI, expr.Add(rsi, expr.Mul(rcx, expr.Word(esz))))
	}
	st.Pred.SetReg(x86.RCX, expr.Word(0))
	return fall(st), nil
}
