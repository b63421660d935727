package x86

import (
	"encoding/binary"
	"fmt"
)

// Encode produces the byte encoding of inst from the first row for its
// mnemonic that fits the operands. For CALL/JMP/JCC with immediate
// operands the immediate must hold the absolute target and inst.Addr the
// instruction address (matching what Decode produces); rel32 forms are
// always chosen. Returns an error for shapes outside the supported subset.
func Encode(inst Inst) ([]byte, error) {
	for _, r := range byMnemonic[inst.Mn] {
		if size, ok := r.fits(&inst); ok {
			return r.encode(&inst, size)
		}
	}
	return nil, fmt.Errorf("x86: cannot encode %s", inst.String())
}

// fits reports whether row r can encode inst, and at which operand size.
func (r *row) fits(inst *Inst) (int, bool) {
	ops := inst.Ops
	slots := layouts[r.form]
	if (r.mn == JCC || r.mn == SETCC || r.mn == CMOVCC) && r.cc != inst.Cond || len(ops) != len(slots) {
		return 0, false
	}
	size := int(r.w) // rows whose operands do not carry the operand size admit one width
	if len(ops) > 0 && ops[0].Kind != OpImm {
		size = ops[0].Size
	}
	if size&int(r.w) != size || r.w > wB && size == 0 {
		return 0, false
	}
	rmSize := size
	if r.rmw != 0 {
		rmSize = int(r.rmw)
	}
	for i, s := range slots {
		o := ops[i]
		ok := false
		switch s {
		case sRM:
			ok = (o.Kind == OpMem || o.Kind == OpReg && r.form != fRegMem) && o.Size == rmSize
		case sReg, sOReg:
			ok = o.Kind == OpReg && o.Size == size
		case sImm:
			switch {
			case o.Kind != OpImm:
			case r.imm == iS:
				ok = o.Size == 1
			case r.imm == iZ && size == 8 && r.form != fRel:
				// imm32 is sign-extended to 64 bits.
				ok = o.Size != 8 && o.Imm == int64(int32(o.Imm))
			default:
				ok = true
			}
		case sAcc:
			ok = o == RegOp(RAX, size)
		case sCL:
			ok = o == RegOp(RCX, 1)
		case sOne:
			ok = o.Kind == OpImm && o.Imm == 1
		case sWidth:
			ok = o.Kind == OpNone
		}
		if !ok {
			return 0, false
		}
	}
	return size, true
}

// encode emits inst by row r at operand size size: legacy prefixes, REX,
// opcode, ModRM, SIB, displacement, immediate.
func (r *row) encode(inst *Inst, size int) ([]byte, error) {
	out := make([]byte, 0, 16)
	if r.pfx&pF3 != 0 || r.pfx&pRep != 0 && inst.Rep {
		out = append(out, 0xf3)
	}
	if r.w > wB && size == 2 {
		out = append(out, 0x66)
	}
	var rex byte
	forceREX := false
	if r.w > wB && size == 8 && r.pfx&pD64 == 0 {
		rex |= rexW
	}
	// regBits returns the low three bits of register operand o, noting its
	// REX extension (bit) and whether it is spl–dil, which need a REX.
	regBits := func(o Operand, bit byte) byte {
		if o.Reg >= 8 {
			rex |= bit
		}
		if o.Size == 1 && o.Reg >= RSP && o.Reg <= RDI {
			forceREX = true
		}
		return byte(o.Reg & 7)
	}

	op := byte(r.op)
	var reg byte
	if r.ext != 0 {
		reg = r.ext - 1
	}
	rm := Operand{Kind: OpReg} // fModRM names no operand: eax
	var imm *Operand
	for i, s := range layouts[r.form] {
		switch s {
		case sRM:
			rm = inst.Ops[i]
		case sReg:
			reg = regBits(inst.Ops[i], rexR)
		case sOReg:
			op += regBits(inst.Ops[i], rexB)
		case sImm:
			imm = &inst.Ops[i]
		}
	}
	var modrm []byte // ModRM, SIB and displacement bytes
	rip := false
	switch {
	case r.form == fTail:
		modrm = []byte{r.tail}
	case !r.form.hasModRM():
	case rm.Kind == OpReg:
		modrm = []byte{0xc0 | reg<<3 | regBits(rm, rexB)}
	default:
		var err error
		if modrm, rip, err = memBytes(rm, reg, &rex); err != nil {
			return nil, err
		}
	}

	if rex != 0 || forceREX {
		out = append(out, 0x40|rex)
	}
	if r.op > 0xff {
		out = append(out, 0x0f)
	}
	out = append(out, op)
	out = append(out, modrm...)
	dispEnd := len(out)
	if imm != nil {
		w := r.immWidth(size)
		v := imm.Imm
		if r.form == fRel {
			if v -= int64(inst.Addr) + int64(len(out)+w); v != v<<(64-8*w)>>(64-8*w) {
				return nil, fmt.Errorf("x86: branch target %#x out of range", imm.Imm)
			}
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		out = append(out, b[:w]...)
	}
	if rip {
		rel := rm.Disp - int64(inst.Addr) - int64(len(out))
		if rel != int64(int32(rel)) {
			return nil, fmt.Errorf("x86: rip-relative target %#x out of range", rm.Disp)
		}
		binary.LittleEndian.PutUint32(out[dispEnd-4:], uint32(int32(rel)))
	}
	return out, nil
}

// memBytes encodes memory operand o with ModRM reg field reg: the ModRM
// byte, any SIB byte and the displacement. It sets REX.X and REX.B in rex,
// and reports a RIP-relative operand, whose displacement the caller fills
// in once the instruction's length is known. The choices: mod 00 unless the
// base is rbp/r13 or the displacement is nonzero, disp8 whenever it fits,
// and a SIB byte for an index, an rsp/r12 base or no base.
func memBytes(o Operand, reg byte, rex *byte) ([]byte, bool, error) {
	if o.Base == RIP {
		return []byte{reg<<3 | 5, 0, 0, 0, 0}, true, nil
	}
	if o.Index == RSP {
		return nil, false, fmt.Errorf("x86: rsp cannot be an index register")
	}
	var mod byte
	switch {
	case o.Base == RegNone || o.Disp == 0 && o.Base&7 != RBP&7:
	case o.Disp >= -128 && o.Disp <= 127:
		mod = 1
	case o.Disp < -1<<31 || o.Disp > 1<<31-1:
		return nil, false, fmt.Errorf("x86: displacement %#x out of range", o.Disp)
	default:
		mod = 2
	}
	base := byte(o.Base & 7)
	if o.Base == RegNone {
		base = 5
	} else if o.Base >= 8 {
		*rex |= rexB
	}
	out := make([]byte, 0, 7)
	if o.Index != RegNone || o.Base == RegNone || base == 4 {
		var scale byte
		switch o.Scale {
		case 0, 1:
		case 2:
			scale = 1
		case 4:
			scale = 2
		case 8:
			scale = 3
		default:
			return nil, false, fmt.Errorf("x86: bad scale %d", o.Scale)
		}
		index := byte(4) // none
		if o.Index != RegNone {
			index = byte(o.Index & 7)
			if o.Index >= 8 {
				*rex |= rexX
			}
		}
		out = append(out, mod<<6|reg<<3|4, scale<<6|index<<3|base)
	} else {
		out = append(out, mod<<6|reg<<3|base)
	}
	var d [4]byte
	binary.LittleEndian.PutUint32(d[:], uint32(int32(o.Disp)))
	switch {
	case o.Base == RegNone || mod == 2:
		out = append(out, d[:]...)
	case mod == 1:
		out = append(out, d[0])
	}
	return out, false, nil
}
