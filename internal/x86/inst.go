package x86

import (
	"fmt"
	"strings"
)

// Mnemonic identifies an instruction family. Conditional families (JCC,
// SETCC, CMOVCC) carry their condition in Inst.Cond.
type Mnemonic uint8

// The supported instruction families.
const (
	BAD Mnemonic = iota
	MOV
	MOVZX
	MOVSX
	MOVSXD
	LEA
	ADD
	SUB
	ADC
	SBB
	CMP
	TEST
	AND
	OR
	XOR
	NOT
	NEG
	INC
	DEC
	IMUL // 1-, 2- and 3-operand forms
	MUL
	DIV
	IDIV
	SHL
	SHR
	SAR
	ROL
	ROR
	PUSH
	POP
	CALL
	RET
	LEAVE
	JMP
	JCC
	SETCC
	CMOVCC
	NOP
	ENDBR64
	XCHG
	CBW  // 66 98: al sign-extended into ax
	CWDE // 98: ax into eax
	CDQE // REX.W 98: eax into rax
	CWD  // 66 99: ax's sign into dx
	CDQ  // 99: eax's sign into edx
	CQO  // REX.W 99: rax's sign into rdx
	UD2
	HLT
	INT3
	SYSCALL
	BT      // bit test
	BTS     // bit test and set
	BTR     // bit test and reset
	BTC     // bit test and complement
	BSF     // bit scan forward
	BSR     // bit scan reverse
	POPCNT  // population count
	XADD    // exchange and add
	CMPXCHG // compare and exchange
	BSWAP   // byte swap
	MOVS    // move string ([rdi] ← [rsi]); Rep for rep movs
	STOS    // store string ([rdi] ← al/rax); Rep for rep stos
	numMnemonics
)

var mnNames = [numMnemonics]string{
	BAD: "(bad)", MOV: "mov", MOVZX: "movzx", MOVSX: "movsx",
	MOVSXD: "movsxd", LEA: "lea", ADD: "add", SUB: "sub", ADC: "adc",
	SBB: "sbb", CMP: "cmp", TEST: "test", AND: "and", OR: "or", XOR: "xor",
	NOT: "not", NEG: "neg", INC: "inc", DEC: "dec", IMUL: "imul",
	MUL: "mul", DIV: "div", IDIV: "idiv", SHL: "shl", SHR: "shr",
	SAR: "sar", ROL: "rol", ROR: "ror", PUSH: "push", POP: "pop",
	CALL: "call", RET: "ret", LEAVE: "leave", JMP: "jmp", JCC: "j",
	SETCC: "set", CMOVCC: "cmov", NOP: "nop", ENDBR64: "endbr64",
	XCHG: "xchg", CBW: "cbw", CWDE: "cwde", CDQE: "cdqe", CWD: "cwd",
	CDQ: "cdq", CQO: "cqo", UD2: "ud2",
	HLT: "hlt", INT3: "int3", SYSCALL: "syscall",
	BT: "bt", BTS: "bts", BTR: "btr", BTC: "btc",
	BSF: "bsf", BSR: "bsr", POPCNT: "popcnt",
	XADD: "xadd", CMPXCHG: "cmpxchg", BSWAP: "bswap",
	MOVS: "movs", STOS: "stos",
}

// String returns the mnemonic text (condition-less for the cc families).
func (m Mnemonic) String() string {
	if m < numMnemonics {
		return mnNames[m]
	}
	return fmt.Sprintf("mn?%d", uint8(m))
}

// Width returns the operand width in bytes that a mnemonic itself names:
// 2, 4 or 8 for cbw/cwd, cwde/cdq and cdqe/cqo. Every other mnemonic takes
// its width from its operands, and Width returns 0.
func (m Mnemonic) Width() int {
	switch m {
	case CBW, CWD:
		return 2
	case CWDE, CDQ:
		return 4
	case CDQE, CQO:
		return 8
	}
	return 0
}

// Cond is an x86 condition code in hardware encoding order, as used by the
// 0F 8x / 0F 9x / 0F 4x opcode rows.
type Cond uint8

// The sixteen condition codes.
const (
	CondO  Cond = iota // overflow
	CondNO             // not overflow
	CondB              // below (carry)
	CondAE             // above or equal (not carry)
	CondE              // equal (zero)
	CondNE             // not equal
	CondBE             // below or equal
	CondA              // above
	CondS              // sign
	CondNS             // not sign
	CondP              // parity
	CondNP             // not parity
	CondL              // less (signed)
	CondGE             // greater or equal (signed)
	CondLE             // less or equal (signed)
	CondG              // greater (signed)
)

var condNames = [...]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// String returns the condition suffix ("e", "ne", "a", …).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// Negate returns the opposite condition.
func (c Cond) Negate() Cond { return c ^ 1 }

// OperandKind discriminates the three operand shapes.
type OperandKind uint8

// The operand shapes.
const (
	OpNone OperandKind = iota
	OpReg              // a (sub-)register, with Size giving the width
	OpImm              // an immediate, sign-extended to 64 bits
	OpMem              // [base + index·scale + disp], possibly RIP-relative
)

// Operand is a single instruction operand.
type Operand struct {
	Kind  OperandKind
	Size  int // access width in bytes: 1, 2, 4 or 8
	Reg   Reg // OpReg
	Imm   int64
	Base  Reg // OpMem; RegNone if absent, RIP for RIP-relative
	Index Reg // OpMem; RegNone if absent
	Scale uint8
	Disp  int64
}

// RegOp returns a register operand of the given width.
func RegOp(r Reg, size int) Operand { return Operand{Kind: OpReg, Reg: r, Size: size} }

// ImmOp returns an immediate operand of the given width.
func ImmOp(v int64, size int) Operand { return Operand{Kind: OpImm, Imm: v, Size: size} }

// MemOp returns a memory operand [base + index·scale + disp] accessed at the
// given width.
func MemOp(base, index Reg, scale uint8, disp int64, size int) Operand {
	return Operand{Kind: OpMem, Base: base, Index: index, Scale: scale, Disp: disp, Size: size}
}

// String renders the operand in Intel syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpReg:
		return o.Reg.Name(o.Size)
	case OpImm:
		if o.Imm < 0 {
			return fmt.Sprintf("-0x%x", uint64(-o.Imm))
		}
		return fmt.Sprintf("0x%x", uint64(o.Imm))
	case OpMem:
		var b strings.Builder
		switch o.Size {
		case 1:
			b.WriteString("byte ptr [")
		case 2:
			b.WriteString("word ptr [")
		case 4:
			b.WriteString("dword ptr [")
		default:
			b.WriteString("qword ptr [")
		}
		sep := ""
		if o.Base != RegNone {
			b.WriteString(o.Base.String())
			sep = "+"
		}
		if o.Index != RegNone {
			b.WriteString(sep)
			fmt.Fprintf(&b, "%s*%d", o.Index, o.Scale)
			sep = "+"
		}
		if o.Disp != 0 || sep == "" {
			if o.Disp < 0 {
				fmt.Fprintf(&b, "-0x%x", uint64(-o.Disp))
			} else {
				b.WriteString(sep)
				fmt.Fprintf(&b, "0x%x", uint64(o.Disp))
			}
		}
		b.WriteByte(']')
		return b.String()
	}
	return ""
}

// Inst is one decoded instruction.
type Inst struct {
	Addr uint64 // virtual address of the first byte
	Len  int    // encoded length in bytes
	Mn   Mnemonic
	Cond Cond // JCC / SETCC / CMOVCC condition
	Rep  bool // REP prefix (MOVS / STOS)
	Ops  []Operand
}

// Next returns the address of the following instruction.
func (i *Inst) Next() uint64 { return i.Addr + uint64(i.Len) }

// Target returns the branch target of a direct CALL/JMP/JCC with an
// immediate operand, and reports whether the instruction has one.
func (i *Inst) Target() (uint64, bool) {
	switch i.Mn {
	case CALL, JMP, JCC:
		if len(i.Ops) == 1 && i.Ops[0].Kind == OpImm {
			return uint64(i.Ops[0].Imm), true
		}
	}
	return 0, false
}

// Mnem returns the full mnemonic text including any condition suffix, the
// string-op width suffix, and the rep prefix.
func (i *Inst) Mnem() string {
	switch i.Mn {
	case JCC, SETCC, CMOVCC:
		return i.Mn.String() + i.Cond.String()
	case MOVS, STOS:
		suffix := map[int]string{1: "b", 2: "w", 4: "d", 8: "q"}[i.strSize()]
		s := i.Mn.String() + suffix
		if i.Rep {
			s = "rep " + s
		}
		return s
	}
	return i.Mn.String()
}

// strSize returns the element width of a string instruction.
func (i *Inst) strSize() int {
	if len(i.Ops) > 0 {
		return i.Ops[0].Size
	}
	return 1
}

// String renders the instruction in Intel syntax. Branch targets are
// rendered as absolute addresses.
func (i *Inst) String() string {
	var b strings.Builder
	b.WriteString(i.Mnem())
	for n, o := range i.Ops {
		if o.Kind == OpNone {
			continue
		}
		if n == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		if (i.Mn == JMP || i.Mn == CALL || i.Mn == JCC) && o.Kind == OpImm {
			fmt.Fprintf(&b, "0x%x", uint64(o.Imm))
			continue
		}
		b.WriteString(o.String())
	}
	return b.String()
}
