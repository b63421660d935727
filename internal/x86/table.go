package x86

import "slices"

// The opcode table. Each row is one instruction form: its opcode, the
// ModRM /reg extension if the opcode has one, the mnemonic, the operand
// layout, the operand widths and immediate it takes, and the prefixes it
// admits. Decode indexes the rows by opcode and takes the first that admits
// the instruction's prefixes and extension; Encode takes the first row for
// the mnemonic that fits the operands. Table order therefore states the
// encoder's preferences (rel32 before rel8, 86/87 before 90+r, …) and, among
// rows sharing an opcode, the decoder's (nop before xchg r8 at 90).

// form is a row's operand layout.
type form uint8

// The operand layouts.
const (
	fNone     form = iota // no operands
	fString               // element width (movs, stos)
	fModRM                // a ModRM byte that names no operand (multi-byte nop)
	fTail                 // a fixed byte after the opcode (row.tail)
	fRM                   // r/m
	fRMReg                // r/m, reg
	fRegRM                // reg, r/m
	fRegMem               // reg, r/m, where r/m must be memory (lea)
	fRMImm                // r/m, imm
	fRMOne                // r/m, 1 (shift by one)
	fRMCL                 // r/m, cl (shift by cl)
	fRegRMImm             // reg, r/m, imm (three-operand imul)
	fAccImm               // acc, imm
	fOReg                 // oreg
	fORegImm              // oreg, imm
	fAccOReg              // acc, oreg (xchg)
	fImm                  // imm
	fRel                  // imm: a relative branch target, resolved to an absolute address
)

// slot is one operand position of a layout.
type slot uint8

// The operand slots.
const (
	sRM    slot = iota // r/m: the ModRM r/m operand
	sReg               // reg: the ModRM reg field
	sOReg              // oreg: the register in the opcode's low three bits, extended by REX.B
	sImm               // imm: the immediate
	sAcc               // acc: al, ax, eax or rax
	sCL                // cl
	sOne               // the constant 1
	sWidth             // an OpNone operand carrying the element width
)

// layouts lists each form's operands.
var layouts = [...][]slot{
	fString: {sWidth}, fRM: {sRM}, fRMReg: {sRM, sReg}, fRegRM: {sReg, sRM}, fRegMem: {sReg, sRM},
	fRMImm: {sRM, sImm}, fRMOne: {sRM, sOne}, fRMCL: {sRM, sCL}, fRegRMImm: {sReg, sRM, sImm},
	fAccImm: {sAcc, sImm}, fOReg: {sOReg}, fORegImm: {sOReg, sImm}, fAccOReg: {sAcc, sOReg},
	fImm: {sImm}, fRel: {sImm},
}

// hasModRM reports whether a ModRM byte follows the opcode.
func (f form) hasModRM() bool { return f == fModRM || slices.Contains(layouts[f], sRM) }

// Operand widths a row admits, as a set of byte sizes. The operand size of
// a sized row is 8 with REX.W, else 2 with 66, else 4 (8 for pD64 rows); a
// prefix that selects a width the row does not admit is not admitted. Byte
// rows and rows without a sized operand ignore 66 and REX.W.
const (
	wB  = 1         // byte
	wV  = 2 | 4 | 8 // word, doubleword or quadword
	wDQ = 4 | 8
)

// Immediate kinds.
const (
	iNone = iota
	i8    // one byte (a count, or the immediate of a byte operation)
	iS    // one byte sign-extended to the operand size; Encode picks it only for a 1-byte immediate operand
	i16   // two bytes, zero-extended (ret imm16)
	iZ    // the operand size, at most four bytes, sign-extended
	iV    // the operand size, up to eight bytes (movabs)
)

// Prefix rules. Segment prefixes other than fs and gs are admitted and
// ignored by every row; fs and gs by none, since the model has no segment
// bases. F2 and F3 are ignored except as these flags say.
const (
	pD64    = 1 << iota // the operand size defaults to 8 bytes (stack and branch rows)
	pRep                // F3 is a rep prefix; F2 is not admitted
	pF3                 // F3 is part of the opcode
	pNoF3               // F3 is not admitted: it makes another instruction (tzcnt, lzcnt)
	pNoRexB             // REX.B is not admitted: it makes another instruction (xchg r8 at 90)
)

type row struct {
	op   uint16 // opcode: one byte, or 0x0f00 | the byte after 0F
	ext  uint8  // 1 + the ModRM /reg extension; 0 if the reg field is an operand or unused
	form form
	mn   Mnemonic
	cc   Cond  // condition of the JCC, SETCC and CMOVCC rows
	w    uint8 // operand widths admitted; 0 if the row has no sized operand
	rmw  uint8 // width of the r/m operand where it is fixed apart from w (movzx, movsxd)
	imm  uint8 // immediate kind
	pfx  uint8 // prefix rules
	tail byte  // the byte that must follow the opcode (fTail)
}

// immWidth returns the byte width of row r's immediate at operand size
// size, or 0 if it has none.
func (r *row) immWidth(size int) int {
	switch r.imm {
	case i8, iS:
		return 1
	case i16:
		return 2
	case iZ:
		return min(size, 4)
	case iV:
		return size
	}
	return 0
}

// slash returns the ext value of the ModRM extension /n.
func slash(n int) uint8 { return uint8(n) + 1 }

// The families whose members share opcodes and differ in their ModRM
// extension (or, for the ALU rows, in the opcode's bits 3–5).
var (
	aluFamily   = [8]Mnemonic{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
	shiftFamily = [8]Mnemonic{ROL, ROR, BAD, BAD, SHL, SHR, BAD, SAR}     // rcl, rcr and sal are not modelled
	unaryFamily = [8]Mnemonic{TEST, TEST, NOT, NEG, MUL, IMUL, DIV, IDIV} // F6/F7; /1 is test's alias
	incFamily   = [2]Mnemonic{INC, DEC}                                   // FE/FF /0 /1
	btFamily    = [4]Mnemonic{BT, BTS, BTR, BTC}                          // 0F A3+8n, 0F BA /4+n
)

// table lists every row, in preference order.
var table = buildTable()

func buildTable() []row {
	var t []row
	add := func(rs ...row) { t = append(t, rs...) }

	for n, mn := range aluFamily {
		op := uint16(n) << 3
		add(row{op: op, form: fRMReg, mn: mn, w: wB},
			row{op: op + 1, form: fRMReg, mn: mn, w: wV},
			row{op: op + 2, form: fRegRM, mn: mn, w: wB},
			row{op: op + 3, form: fRegRM, mn: mn, w: wV},
			row{op: op + 4, form: fAccImm, mn: mn, w: wB, imm: i8},
			row{op: 0x80, ext: slash(n), form: fRMImm, mn: mn, w: wB, imm: i8},
			row{op: 0x83, ext: slash(n), form: fRMImm, mn: mn, w: wV, imm: iS},
			row{op: op + 5, form: fAccImm, mn: mn, w: wV, imm: iZ},
			row{op: 0x81, ext: slash(n), form: fRMImm, mn: mn, w: wV, imm: iZ})
	}
	for n, mn := range shiftFamily {
		if mn != BAD {
			add(row{op: 0xc0, ext: slash(n), form: fRMImm, mn: mn, w: wB, imm: i8},
				row{op: 0xc1, ext: slash(n), form: fRMImm, mn: mn, w: wV, imm: i8},
				row{op: 0xd2, ext: slash(n), form: fRMCL, mn: mn, w: wB},
				row{op: 0xd3, ext: slash(n), form: fRMCL, mn: mn, w: wV},
				row{op: 0xd0, ext: slash(n), form: fRMOne, mn: mn, w: wB},
				row{op: 0xd1, ext: slash(n), form: fRMOne, mn: mn, w: wV})
		}
	}
	add(row{op: 0x84, form: fRMReg, mn: TEST, w: wB},
		row{op: 0x85, form: fRMReg, mn: TEST, w: wV},
		row{op: 0x0faf, form: fRegRM, mn: IMUL, w: wV},
		row{op: 0x6b, form: fRegRMImm, mn: IMUL, w: wV, imm: iS},
		row{op: 0x69, form: fRegRMImm, mn: IMUL, w: wV, imm: iZ})
	for n, mn := range unaryFamily {
		if mn == TEST {
			add(row{op: 0xf6, ext: slash(n), form: fRMImm, mn: mn, w: wB, imm: i8},
				row{op: 0xf7, ext: slash(n), form: fRMImm, mn: mn, w: wV, imm: iZ})
		} else {
			add(row{op: 0xf6, ext: slash(n), form: fRM, mn: mn, w: wB},
				row{op: 0xf7, ext: slash(n), form: fRM, mn: mn, w: wV})
		}
	}
	add(row{op: 0xa8, form: fAccImm, mn: TEST, w: wB, imm: i8},
		row{op: 0xa9, form: fAccImm, mn: TEST, w: wV, imm: iZ})
	for n, mn := range incFamily {
		add(row{op: 0xfe, ext: slash(n), form: fRM, mn: mn, w: wB},
			row{op: 0xff, ext: slash(n), form: fRM, mn: mn, w: wV})
	}
	for n, mn := range btFamily {
		add(row{op: 0x0fa3 + uint16(n)<<3, form: fRMReg, mn: mn, w: wV},
			row{op: 0x0fba, ext: slash(4 + n), form: fRMImm, mn: mn, w: wV, imm: i8})
	}
	for cc := Cond(0); cc < 16; cc++ {
		add(row{op: 0x0f80 + uint16(cc), form: fRel, mn: JCC, cc: cc, w: 8, imm: iZ, pfx: pD64},
			row{op: 0x70 + uint16(cc), form: fRel, mn: JCC, cc: cc, w: 8, imm: i8, pfx: pD64},
			row{op: 0x0f90 + uint16(cc), form: fRM, mn: SETCC, cc: cc, w: wB},
			row{op: 0x0f40 + uint16(cc), form: fRegRM, mn: CMOVCC, cc: cc, w: wV})
	}
	add(
		row{op: 0x88, form: fRMReg, mn: MOV, w: wB},
		row{op: 0x89, form: fRMReg, mn: MOV, w: wV},
		row{op: 0x8a, form: fRegRM, mn: MOV, w: wB},
		row{op: 0x8b, form: fRegRM, mn: MOV, w: wV},
		row{op: 0xb0, form: fORegImm, mn: MOV, w: wB, imm: i8},
		row{op: 0xc6, ext: slash(0), form: fRMImm, mn: MOV, w: wB, imm: i8},
		row{op: 0xc7, ext: slash(0), form: fRMImm, mn: MOV, w: wV, imm: iZ},
		row{op: 0xb8, form: fORegImm, mn: MOV, w: wV, imm: iV},
		row{op: 0x0fb6, form: fRegRM, mn: MOVZX, w: wV, rmw: 1},
		row{op: 0x0fb7, form: fRegRM, mn: MOVZX, w: wV, rmw: 2},
		row{op: 0x0fbe, form: fRegRM, mn: MOVSX, w: wV, rmw: 1},
		row{op: 0x0fbf, form: fRegRM, mn: MOVSX, w: wV, rmw: 2},
		row{op: 0x63, form: fRegRM, mn: MOVSXD, w: 8, rmw: 4},
		row{op: 0x8d, form: fRegMem, mn: LEA, w: wV},

		row{op: 0x50, form: fOReg, mn: PUSH, w: 8, pfx: pD64},
		row{op: 0x6a, form: fImm, mn: PUSH, w: 8, imm: iS, pfx: pD64},
		row{op: 0x68, form: fImm, mn: PUSH, w: 8, imm: iZ, pfx: pD64},
		row{op: 0xff, ext: slash(6), form: fRM, mn: PUSH, w: 8, pfx: pD64},
		row{op: 0x58, form: fOReg, mn: POP, w: 8, pfx: pD64},
		row{op: 0x8f, ext: slash(0), form: fRM, mn: POP, w: 8, pfx: pD64},
		row{op: 0xe8, form: fRel, mn: CALL, w: 8, imm: iZ, pfx: pD64},
		row{op: 0xff, ext: slash(2), form: fRM, mn: CALL, w: 8, pfx: pD64},
		row{op: 0xe9, form: fRel, mn: JMP, w: 8, imm: iZ, pfx: pD64},
		row{op: 0xeb, form: fRel, mn: JMP, w: 8, imm: i8, pfx: pD64},
		row{op: 0xff, ext: slash(4), form: fRM, mn: JMP, w: 8, pfx: pD64},
		row{op: 0xc3, form: fNone, mn: RET, w: 8, pfx: pD64},
		row{op: 0xc2, form: fImm, mn: RET, w: 8, imm: i16, pfx: pD64},
		row{op: 0xc9, form: fNone, mn: LEAVE, w: 8, pfx: pD64},

		row{op: 0x90, form: fNone, mn: NOP, pfx: pNoRexB},
		row{op: 0x0f1f, form: fModRM, mn: NOP},
		row{op: 0x86, form: fRMReg, mn: XCHG, w: wB},
		row{op: 0x87, form: fRMReg, mn: XCHG, w: wV},
		row{op: 0x90, form: fAccOReg, mn: XCHG, w: wV},
		row{op: 0x98, form: fNone, mn: CBW, w: 2},
		row{op: 0x98, form: fNone, mn: CWDE, w: 4},
		row{op: 0x98, form: fNone, mn: CDQE, w: 8},
		row{op: 0x99, form: fNone, mn: CWD, w: 2},
		row{op: 0x99, form: fNone, mn: CDQ, w: 4},
		row{op: 0x99, form: fNone, mn: CQO, w: 8},
		row{op: 0xa4, form: fString, mn: MOVS, w: wB, pfx: pRep},
		row{op: 0xa5, form: fString, mn: MOVS, w: wV, pfx: pRep},
		row{op: 0xaa, form: fString, mn: STOS, w: wB, pfx: pRep},
		row{op: 0xab, form: fString, mn: STOS, w: wV, pfx: pRep},
		row{op: 0x0fbc, form: fRegRM, mn: BSF, w: wV, pfx: pNoF3},
		row{op: 0x0fbd, form: fRegRM, mn: BSR, w: wV, pfx: pNoF3},
		row{op: 0x0fb8, form: fRegRM, mn: POPCNT, w: wV, pfx: pF3},
		row{op: 0x0fc0, form: fRMReg, mn: XADD, w: wB},
		row{op: 0x0fc1, form: fRMReg, mn: XADD, w: wV},
		row{op: 0x0fb0, form: fRMReg, mn: CMPXCHG, w: wB},
		row{op: 0x0fb1, form: fRMReg, mn: CMPXCHG, w: wV},
		row{op: 0x0fc8, form: fOReg, mn: BSWAP, w: wDQ},
		row{op: 0xcc, form: fNone, mn: INT3},
		row{op: 0xf4, form: fNone, mn: HLT},
		row{op: 0x0f0b, form: fNone, mn: UD2},
		row{op: 0x0f05, form: fNone, mn: SYSCALL},
		row{op: 0x0f1e, form: fTail, mn: ENDBR64, pfx: pF3, tail: 0xfa},
	)
	return t
}

// byOpcode and byMnemonic index the table for Decode and Encode: opcode
// byte b at index b, 0F b at 0x100 | b.
var byOpcode, byMnemonic = indexTable()

func indexTable() (op [0x200][]*row, mn [numMnemonics][]*row) {
	for i := range table {
		r := &table[i]
		k := int(r.op & 0xff)
		if r.op > 0xff {
			k |= 0x100
		}
		n := 1
		if slices.Contains(layouts[r.form], sOReg) {
			n = 8 // the opcode's low three bits name a register
		}
		for j := 0; j < n; j++ {
			op[k+j] = append(op[k+j], r)
		}
		mn[r.mn] = append(mn[r.mn], r)
	}
	return op, mn
}
