package x86

import (
	"encoding/binary"
	"fmt"
)

// DecodeError reports an undecodable byte sequence.
type DecodeError struct {
	Addr   uint64
	Opcode byte
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("x86: cannot decode at %#x (opcode %#02x): %s", e.Addr, e.Opcode, e.Reason)
}

// REX payload bits.
const (
	rexB = 1 << iota // extends ModRM.rm, SIB.base and the opcode register
	rexX             // extends SIB.index
	rexR             // extends ModRM.reg
	rexW             // 64-bit operand size
)

type decoder struct {
	code []byte
	addr uint64
	pos  int

	rex    byte
	hasREX bool
	op66   bool
	repF3  bool
	repF2  bool
	opc    byte
	modrm  byte
}

func (d *decoder) fail(reason string) error {
	return &DecodeError{Addr: d.addr, Opcode: d.opc, Reason: reason}
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, d.fail("truncated instruction")
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

// truncated names the error of a short immediate or displacement.
var truncated = [...]string{1: "truncated instruction", 2: "truncated imm16", 4: "truncated imm32", 8: "truncated imm64"}

// imm reads a size-byte immediate sign-extended to 64 bits.
func (d *decoder) imm(size int) (int64, error) {
	if d.pos+size > len(d.code) {
		return 0, d.fail(truncated[size])
	}
	b := d.code[d.pos:]
	d.pos += size
	switch size {
	case 1:
		return int64(int8(b[0])), nil
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b))), nil
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b))), nil
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// ext returns REX bit b as the high bit of a register number.
func (d *decoder) ext(b byte) Reg {
	if d.rex&b != 0 {
		return 8
	}
	return 0
}

// rm parses the r/m operand of the ModRM byte already read (plus its SIB
// byte and displacement) at the given access size.
func (d *decoder) rm(size int) (Operand, error) {
	mod, rmBits := d.modrm>>6, Reg(d.modrm&7)
	if mod == 3 {
		return RegOp(rmBits|d.ext(rexB), size), nil
	}
	mem := Operand{Kind: OpMem, Size: size, Base: RegNone, Index: RegNone, Scale: 1}
	switch {
	case rmBits == 4: // SIB follows
		sib, err := d.byte()
		if err != nil {
			return Operand{}, err
		}
		if idx := Reg(sib>>3&7) | d.ext(rexX); idx != RSP { // index=100b (without REX.X) means "no index"
			mem.Index, mem.Scale = idx, 1<<(sib>>6)
		}
		if sib&7 == 5 && mod == 0 { // no base, disp32 follows
			mod = 2
		} else {
			mem.Base = Reg(sib&7) | d.ext(rexB)
		}
	case rmBits == 5 && mod == 0: // RIP-relative disp32
		mem.Base = RIP
		mod = 2
	default:
		mem.Base = rmBits | d.ext(rexB)
	}
	var err error
	switch mod {
	case 1:
		mem.Disp, err = d.imm(1)
	case 2:
		mem.Disp, err = d.imm(4)
	}
	return mem, err
}

// Decode decodes a single instruction starting at code[0], whose first byte
// lives at virtual address addr. RIP-relative displacements are resolved
// against the end of the instruction and materialised as absolute
// addresses in the operand (Base=RIP, Disp=absolute target), so downstream
// consumers never re-do RIP arithmetic.
func Decode(code []byte, addr uint64) (Inst, error) {
	d := decoder{code: code, addr: addr}

	// Prefixes.
prefixes:
	for {
		if d.pos >= len(code) {
			return Inst{}, d.fail("empty")
		}
		switch b := code[d.pos]; b {
		case 0x66:
			d.op66 = true
		case 0xf3:
			d.repF3 = true
		case 0xf2:
			d.repF2 = true
		case 0x2e, 0x3e, 0x26, 0x36: // segment overrides without effect in 64-bit mode, branch hints
		case 0x64, 0x65:
			return Inst{}, d.fail("fs/gs segment override unsupported")
		default:
			if b >= 0x40 && b <= 0x4f {
				// REX must be the last prefix.
				d.rex = b & 0xf
				d.hasREX = true
				d.pos++
			}
			break prefixes
		}
		d.pos++
	}

	opc, err := d.byte()
	if err != nil {
		return Inst{}, err
	}
	d.opc = opc
	key, what := int(opc), "opcode"
	if opc == 0x0f {
		if d.opc, err = d.byte(); err != nil {
			return Inst{}, err
		}
		key, what = 0x100|int(d.opc), "0f opcode"
	}
	rows := byOpcode[key]
	if len(rows) == 0 {
		return Inst{}, d.fail("unsupported " + what)
	}
	if rows[0].form.hasModRM() {
		if d.modrm, err = d.byte(); err != nil {
			return Inst{}, err
		}
	}
	r, size, err := d.match(rows)
	if err != nil {
		return Inst{}, err
	}
	inst := Inst{Addr: addr, Mn: r.mn, Cond: r.cc, Rep: r.pfx&pRep != 0 && d.repF3}
	if inst.Ops, err = d.operands(r, size); err != nil {
		return Inst{}, err
	}
	// The processor faults on an instruction longer than 15 bytes, which
	// only redundant prefixes can make.
	if d.pos > 15 {
		return Inst{}, d.fail("instruction longer than 15 bytes")
	}
	inst.Len = d.pos

	// Resolve RIP-relative displacements and relative branch targets to
	// absolute addresses.
	for i := range inst.Ops {
		o := &inst.Ops[i]
		if o.Kind == OpMem && o.Base == RIP {
			o.Disp += int64(inst.Next())
		}
	}
	if r.form == fRel {
		inst.Ops[0].Imm += int64(inst.Next())
		inst.Ops[0].Size = 8
	}
	return inst, nil
}

// match returns the first row that admits the ModRM extension and the
// prefixes read, with the operand size they select.
func (d *decoder) match(rows []*row) (*row, int, error) {
	reason := ""
	for _, r := range rows {
		if r.ext != 0 && r.ext != slash(int(d.modrm>>3&7)) {
			continue
		}
		size := int(r.w)
		switch {
		case r.w <= wB:
		case d.rex&rexW != 0:
			size = 8
		case d.op66:
			size = 2
		case r.pfx&pD64 != 0:
			size = 8
		default:
			size = 4
		}
		switch {
		case size&int(r.w) != size:
			reason = "operand size prefix unsupported"
		case r.pfx&pRep != 0 && d.repF2:
			reason = "repne prefix unsupported"
		case r.pfx&pF3 != 0 && !d.repF3:
			reason = "missing f3 prefix"
		case r.pfx&pNoF3 != 0 && d.repF3:
			reason = "f3 prefix (tzcnt, lzcnt) unsupported"
		case r.pfx&pNoRexB != 0 && d.rex&rexB != 0:
			// The next row (xchg) takes it.
		default:
			return r, size, nil
		}
	}
	if reason == "" {
		reason = fmt.Sprintf("unsupported extension /%d", d.modrm>>3&7)
	}
	return nil, 0, d.fail(reason)
}

// operands reads the operands of row r at operand size size.
func (d *decoder) operands(r *row, size int) ([]Operand, error) {
	var rm, imm Operand
	var err error
	switch {
	case r.form.hasModRM():
		rmSize := size
		if r.rmw != 0 {
			rmSize = int(r.rmw)
		}
		if rm, err = d.rm(rmSize); err != nil {
			return nil, err
		}
		if r.form == fRegMem && rm.Kind != OpMem {
			return nil, d.fail("register operand where memory is required")
		}
	case r.form == fTail:
		b, err := d.byte()
		if err != nil {
			return nil, err
		}
		if b != r.tail {
			return nil, d.fail(fmt.Sprintf("%#02x after the opcode, want %#02x", b, r.tail))
		}
	}
	if w := r.immWidth(size); w > 0 {
		if imm.Imm, err = d.imm(w); err != nil {
			return nil, err
		}
		if r.imm == i16 {
			imm.Imm = int64(uint16(imm.Imm))
		}
		imm.Kind, imm.Size = OpImm, w
	}

	slots := layouts[r.form]
	if len(slots) == 0 {
		return nil, nil
	}
	ops := make([]Operand, len(slots))
	for i, s := range slots {
		switch s {
		case sRM:
			ops[i] = rm
		case sReg:
			ops[i] = RegOp(Reg(d.modrm>>3&7)|d.ext(rexR), size)
		case sOReg:
			ops[i] = RegOp(Reg(d.opc&7)|d.ext(rexB), size)
		case sImm:
			ops[i] = imm
		case sAcc:
			ops[i] = RegOp(RAX, size)
		case sCL:
			ops[i] = RegOp(RCX, 1)
		case sOne:
			ops[i] = ImmOp(1, 1)
		case sWidth:
			ops[i] = Operand{Kind: OpNone, Size: size}
		}
		// Without REX, byte registers 4–7 are ah, ch, dh and bh, which
		// the model does not name.
		if o := ops[i]; o.Kind == OpReg && o.Size == 1 && o.Reg >= RSP && o.Reg <= RDI && !d.hasREX {
			return nil, d.fail("high-byte register (ah, ch, dh, bh) unsupported")
		}
	}
	return ops, nil
}
