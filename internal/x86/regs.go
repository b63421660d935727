// Package x86 provides an x86-64 instruction model together with a
// byte-accurate decoder and encoder for the instruction subset used by the
// lifter: data movement, integer ALU, shifts, multiplication/division,
// stack manipulation, direct/indirect control flow and the conditional
// families (Jcc, SETcc, CMOVcc). The paper assumes "the existence of a
// fetch function that, given an address, soundly retrieves a single
// instruction from the binary" — this package is that fetch function, and
// the encoder is its inverse, used by the synthetic corpus compiler and by
// round-trip tests.
//
// One opcode table (table.go) drives both directions: each row gives an
// opcode, its ModRM extension, mnemonic, operand layout, operand widths,
// immediate and the prefixes it admits. Decode takes the first row of the
// opcode that admits the instruction's prefixes; Encode the first row of
// the mnemonic that fits the operands. Anything the table does not
// describe is a DecodeError — including a prefix that no row of the
// opcode admits, such as one that would select a high-byte register, a
// 16-bit stack or branch operand, or an fs/gs segment base, and an
// instruction longer than the processor's 15 bytes.
package x86

import "fmt"

// Reg identifies a 64-bit general purpose register (or RIP). Sub-registers
// (eax, ax, al…) are represented as the 64-bit register plus an operand
// size.
type Reg uint8

// The sixteen general-purpose registers, the instruction pointer, and the
// absent-register sentinel used in memory operands.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	RIP
	RegNone Reg = 0xff
)

var regNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rip",
}

var regNames32 = [...]string{
	"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
	"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d", "eip",
}

var regNames16 = [...]string{
	"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
	"r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w", "ip",
}

var regNames8 = [...]string{
	"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
	"r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b", "ipl",
}

// String returns the canonical 64-bit name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Name returns the register name at the given operand size in bytes.
func (r Reg) Name(size int) string {
	if int(r) >= len(regNames) {
		return r.String()
	}
	switch size {
	case 1:
		return regNames8[r]
	case 2:
		return regNames16[r]
	case 4:
		return regNames32[r]
	default:
		return regNames[r]
	}
}

// GPRs lists the sixteen general-purpose registers in encoding order.
var GPRs = []Reg{
	RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI,
	R8, R9, R10, R11, R12, R13, R14, R15,
}

// CalleeSaved lists the registers the System V AMD64 calling convention
// requires callees to preserve (besides RSP, which is handled separately).
var CalleeSaved = []Reg{RBX, RBP, R12, R13, R14, R15}

// CallerSaved lists the volatile registers a call may clobber.
var CallerSaved = []Reg{RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11}

// ArgRegs lists the integer argument registers in System V order.
var ArgRegs = []Reg{RDI, RSI, RDX, RCX, R8, R9}

// IsCalleeSaved reports whether the calling convention marks r non-volatile.
func IsCalleeSaved(r Reg) bool {
	for _, c := range CalleeSaved {
		if c == r {
			return true
		}
	}
	return false
}

// Flag identifies one of the five status flags modelled by the lifter.
type Flag uint8

// The modelled status flags.
const (
	CF Flag = iota // carry
	PF             // parity
	ZF             // zero
	SF             // sign
	OF             // overflow
	NumFlags
)

var flagNames = [...]string{"cf", "pf", "zf", "sf", "of"}

// String returns the lower-case flag name.
func (f Flag) String() string {
	if int(f) < len(flagNames) {
		return flagNames[f]
	}
	return fmt.Sprintf("flag?%d", uint8(f))
}
