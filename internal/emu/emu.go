// Package emu is a concrete x86-64 emulator for the instruction subset the
// lifter supports. It provides ground truth: differential tests check the
// symbolic semantics against it on concrete inputs, and the Hoare-graph
// soundness tests check that every transition of a concrete run is
// simulated by an edge of the lifted graph (Definition 4.6).
package emu

import (
	"fmt"
	"math/bits"

	"repro/internal/image"
	"repro/internal/x86"
)

// StackTop is the initial stack pointer of a run.
const StackTop = 0x7ffffff000

// Sentinel is the return address pushed at startup; a ret to it halts.
const Sentinel = 0xdead0000dead

// CPU is a concrete machine state.
type CPU struct {
	Regs  [16]uint64
	RIP   uint64
	Flags [x86.NumFlags]bool
	mem   map[uint64]byte
	img   *image.Image
	// Externals maps external function names (PLT stubs) to handlers. A
	// nil handler entry or missing name uses the default: clobber
	// caller-saved registers and return 0.
	Externals map[string]func(c *CPU)
	// Halted is set when the CPU executed hlt/ud2 or returned to the
	// sentinel.
	Halted bool
	// Steps counts executed instructions.
	Steps int
}

// New returns a CPU at the image entry with an initialised stack.
func New(img *image.Image) *CPU {
	c := &CPU{img: img, mem: map[uint64]byte{}, Externals: map[string]func(c *CPU){}}
	c.Reset(img.Entry())
	return c
}

// Reset rewinds the CPU to a fresh state starting at addr.
func (c *CPU) Reset(addr uint64) {
	c.mem = map[uint64]byte{}
	c.Regs = [16]uint64{}
	c.Flags = [x86.NumFlags]bool{}
	c.Halted = false
	c.Steps = 0
	c.RIP = addr
	c.Regs[x86.RSP] = StackTop
	c.push(Sentinel)
}

// ReadMem reads size bytes little-endian, falling back to the image's
// initialised data.
func (c *CPU) ReadMem(addr uint64, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(c.readByte(addr+uint64(i)))
	}
	return v
}

func (c *CPU) readByte(addr uint64) byte {
	if b, ok := c.mem[addr]; ok {
		return b
	}
	if b, ok := c.img.File().ReadAt(addr, 1); ok {
		return b[0]
	}
	return 0
}

// WriteMem writes size bytes little-endian.
func (c *CPU) WriteMem(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		c.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

func (c *CPU) push(v uint64) {
	c.Regs[x86.RSP] -= 8
	c.WriteMem(c.Regs[x86.RSP], 8, v)
}

func (c *CPU) pop() uint64 {
	v := c.ReadMem(c.Regs[x86.RSP], 8)
	c.Regs[x86.RSP] += 8
	return v
}

func maskFor(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(uint(size)*8) - 1
}

func signBit(size int) uint64 { return 1 << (uint(size)*8 - 1) }

// readOp evaluates an operand.
func (c *CPU) readOp(o x86.Operand) uint64 {
	switch o.Kind {
	case x86.OpImm:
		// Immediates are sign-extended to 64 bits at decode time; the
		// consuming operation masks to its own width.
		return uint64(o.Imm)
	case x86.OpReg:
		return c.Regs[o.Reg] & maskFor(o.Size)
	case x86.OpMem:
		return c.ReadMem(c.addrOf(o), o.Size)
	}
	return 0
}

// addrOf computes a memory operand's effective address.
func (c *CPU) addrOf(o x86.Operand) uint64 {
	if o.Base == x86.RIP {
		return uint64(o.Disp) // absolutised at decode time
	}
	a := uint64(o.Disp)
	if o.Base != x86.RegNone {
		a += c.Regs[o.Base]
	}
	if o.Index != x86.RegNone {
		a += c.Regs[o.Index] * uint64(o.Scale)
	}
	return a
}

// writeOp writes a value to an operand with x86 merge semantics.
func (c *CPU) writeOp(o x86.Operand, v uint64) {
	switch o.Kind {
	case x86.OpReg:
		switch o.Size {
		case 8:
			c.Regs[o.Reg] = v
		case 4:
			c.Regs[o.Reg] = v & maskFor(4)
		default:
			m := maskFor(o.Size)
			c.Regs[o.Reg] = c.Regs[o.Reg]&^m | v&m
		}
	case x86.OpMem:
		c.WriteMem(c.addrOf(o), o.Size, v)
	}
}

func (c *CPU) setFlagsZSP(res uint64, size int) {
	res &= maskFor(size)
	c.Flags[x86.ZF] = res == 0
	c.Flags[x86.SF] = res&signBit(size) != 0
	c.Flags[x86.PF] = bits.OnesCount8(uint8(res))%2 == 0
}

func (c *CPU) setFlagsAdd(a, b, carry uint64, size int) uint64 {
	m := maskFor(size)
	a &= m
	b &= m
	res := (a + b + carry) & m
	c.Flags[x86.CF] = res < a || (carry == 1 && res == a && b == m)
	sa, sb, sr := a&signBit(size) != 0, b&signBit(size) != 0, res&signBit(size) != 0
	c.Flags[x86.OF] = sa == sb && sr != sa
	c.setFlagsZSP(res, size)
	return res
}

func (c *CPU) setFlagsSub(a, b, borrow uint64, size int) uint64 {
	m := maskFor(size)
	a &= m
	b &= m
	res := (a - b - borrow) & m
	c.Flags[x86.CF] = a < b+borrow || (borrow == 1 && b == m)
	sa, sb, sr := a&signBit(size) != 0, b&signBit(size) != 0, res&signBit(size) != 0
	c.Flags[x86.OF] = sa != sb && sr != sa
	c.setFlagsZSP(res, size)
	return res
}

func (c *CPU) setFlagsLogic(res uint64, size int) uint64 {
	c.Flags[x86.CF] = false
	c.Flags[x86.OF] = false
	c.setFlagsZSP(res, size)
	return res & maskFor(size)
}

// Cond evaluates a condition code against the current flags.
func (c *CPU) Cond(cc x86.Cond) bool {
	var v bool
	switch cc &^ 1 {
	case x86.CondO:
		v = c.Flags[x86.OF]
	case x86.CondB:
		v = c.Flags[x86.CF]
	case x86.CondE:
		v = c.Flags[x86.ZF]
	case x86.CondBE:
		v = c.Flags[x86.CF] || c.Flags[x86.ZF]
	case x86.CondS:
		v = c.Flags[x86.SF]
	case x86.CondP:
		v = c.Flags[x86.PF]
	case x86.CondL:
		v = c.Flags[x86.SF] != c.Flags[x86.OF]
	case x86.CondLE:
		v = c.Flags[x86.ZF] || c.Flags[x86.SF] != c.Flags[x86.OF]
	}
	if cc&1 != 0 {
		v = !v
	}
	return v
}

// defaultExternal models an unknown external function: caller-saved
// registers are clobbered with a recognisable pattern and rax is zeroed.
func defaultExternal(c *CPU) {
	for _, r := range x86.CallerSaved {
		c.Regs[r] = 0xc10bbe7ed
	}
	c.Regs[x86.RAX] = 0
}

// Step executes one instruction. It returns the executed instruction so
// callers can record (from, to) transitions.
func (c *CPU) Step() (x86.Inst, error) {
	if c.Halted {
		return x86.Inst{}, fmt.Errorf("emu: cpu is halted")
	}
	// A PLT stub pending? Externals are handled at call time.
	inst, err := c.img.Fetch(c.RIP)
	if err != nil {
		return x86.Inst{}, fmt.Errorf("emu: at %#x: %w", c.RIP, err)
	}
	c.Steps++
	next := inst.Next()
	ops := inst.Ops
	size := 0
	if len(ops) > 0 {
		size = ops[0].Size
	}

	switch inst.Mn {
	case x86.NOP, x86.ENDBR64:
	case x86.HLT, x86.UD2, x86.INT3:
		c.Halted = true
		return inst, nil
	case x86.SYSCALL:
		defaultExternal(c)
	case x86.MOV:
		c.writeOp(ops[0], c.readOp(ops[1]))
	case x86.MOVZX:
		c.writeOp(ops[0], c.readOp(ops[1]))
	case x86.MOVSX, x86.MOVSXD:
		v := signExtend(c.readOp(ops[1]), ops[1].Size)
		c.writeOp(ops[0], v&maskFor(ops[0].Size))
	case x86.LEA:
		c.writeOp(ops[0], c.addrOf(ops[1])&maskFor(size))
	case x86.ADD:
		c.writeOp(ops[0], c.setFlagsAdd(c.readOp(ops[0]), c.readOp(ops[1]), 0, size))
	case x86.ADC:
		carry := uint64(0)
		if c.Flags[x86.CF] {
			carry = 1
		}
		c.writeOp(ops[0], c.setFlagsAdd(c.readOp(ops[0]), c.readOp(ops[1]), carry, size))
	case x86.SUB:
		c.writeOp(ops[0], c.setFlagsSub(c.readOp(ops[0]), c.readOp(ops[1]), 0, size))
	case x86.SBB:
		borrow := uint64(0)
		if c.Flags[x86.CF] {
			borrow = 1
		}
		c.writeOp(ops[0], c.setFlagsSub(c.readOp(ops[0]), c.readOp(ops[1]), borrow, size))
	case x86.CMP:
		c.setFlagsSub(c.readOp(ops[0]), c.readOp(ops[1]), 0, size)
	case x86.TEST:
		c.setFlagsLogic(c.readOp(ops[0])&c.readOp(ops[1]), size)
	case x86.AND:
		c.writeOp(ops[0], c.setFlagsLogic(c.readOp(ops[0])&c.readOp(ops[1]), size))
	case x86.OR:
		c.writeOp(ops[0], c.setFlagsLogic(c.readOp(ops[0])|c.readOp(ops[1]), size))
	case x86.XOR:
		c.writeOp(ops[0], c.setFlagsLogic(c.readOp(ops[0])^c.readOp(ops[1]), size))
	case x86.NOT:
		c.writeOp(ops[0], ^c.readOp(ops[0])&maskFor(size))
	case x86.NEG:
		c.writeOp(ops[0], c.setFlagsSub(0, c.readOp(ops[0]), 0, size))
	case x86.INC:
		cf := c.Flags[x86.CF] // inc preserves CF
		c.writeOp(ops[0], c.setFlagsAdd(c.readOp(ops[0]), 1, 0, size))
		c.Flags[x86.CF] = cf
	case x86.DEC:
		cf := c.Flags[x86.CF]
		c.writeOp(ops[0], c.setFlagsSub(c.readOp(ops[0]), 1, 0, size))
		c.Flags[x86.CF] = cf
	case x86.IMUL:
		if err := c.stepIMul(inst); err != nil {
			return inst, err
		}
	case x86.MUL:
		a := c.Regs[x86.RAX] & maskFor(size)
		b := c.readOp(ops[0])
		hi, lo := bits.Mul64(a, b)
		if size < 8 {
			full := a * b
			lo = full & maskFor(size)
			hi = (full >> (uint(size) * 8)) & maskFor(size)
		}
		c.writeOp(x86.RegOp(x86.RAX, size), lo)
		c.writeOp(x86.RegOp(x86.RDX, size), hi)
	case x86.DIV:
		b := c.readOp(ops[0])
		if b == 0 {
			return inst, fmt.Errorf("emu: divide by zero at %#x", inst.Addr)
		}
		a := c.Regs[x86.RAX] & maskFor(size)
		d := c.Regs[x86.RDX] & maskFor(size)
		if size == 8 && d == 0 {
			c.Regs[x86.RAX] = a / b
			c.Regs[x86.RDX] = a % b
		} else {
			full := d<<(uint(size)*8) | a
			c.writeOp(x86.RegOp(x86.RAX, size), full/b)
			c.writeOp(x86.RegOp(x86.RDX, size), full%b)
		}
	case x86.IDIV:
		b := int64(signExtend(c.readOp(ops[0]), size))
		if b == 0 {
			return inst, fmt.Errorf("emu: divide by zero at %#x", inst.Addr)
		}
		a := int64(signExtend(c.Regs[x86.RAX]&maskFor(size), size))
		if a == -1<<63 && b == -1 {
			return inst, fmt.Errorf("emu: idiv overflow at %#x", inst.Addr)
		}
		c.writeOp(x86.RegOp(x86.RAX, size), uint64(a/b)&maskFor(size))
		c.writeOp(x86.RegOp(x86.RDX, size), uint64(a%b)&maskFor(size))
	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		c.stepShift(inst)
	case x86.BT, x86.BTS, x86.BTR, x86.BTC:
		// Register/immediate offsets only (the decoder produces these);
		// memory forms take the offset modulo the operand width, as for
		// register destinations.
		v := c.readOp(ops[0])
		off := c.readOp(ops[1]) % (uint64(size) * 8)
		bit := v >> off & 1
		c.Flags[x86.CF] = bit == 1
		switch inst.Mn {
		case x86.BTS:
			c.writeOp(ops[0], v|1<<off)
		case x86.BTR:
			c.writeOp(ops[0], v&^(1<<off))
		case x86.BTC:
			c.writeOp(ops[0], v^1<<off)
		}
	case x86.BSF, x86.BSR:
		v := c.readOp(ops[1])
		c.Flags[x86.ZF] = v == 0
		if v != 0 {
			if inst.Mn == x86.BSF {
				c.writeOp(ops[0], uint64(bits.TrailingZeros64(v)))
			} else {
				c.writeOp(ops[0], uint64(bits.Len64(v)-1))
			}
		}
	case x86.POPCNT:
		v := c.readOp(ops[1])
		c.writeOp(ops[0], uint64(bits.OnesCount64(v)))
		c.Flags[x86.ZF] = v == 0
		c.Flags[x86.CF] = false
		c.Flags[x86.OF] = false
		c.Flags[x86.SF] = false
	case x86.XADD:
		a := c.readOp(ops[0])
		bv := c.readOp(ops[1])
		sum := c.setFlagsAdd(a, bv, 0, size)
		c.writeOp(ops[1], a)
		c.writeOp(ops[0], sum)
	case x86.CMPXCHG:
		dst := c.readOp(ops[0])
		acc := c.Regs[x86.RAX] & maskFor(size)
		c.setFlagsSub(acc, dst, 0, size)
		if acc == dst {
			c.writeOp(ops[0], c.readOp(ops[1]))
		} else {
			c.writeOp(x86.RegOp(x86.RAX, size), dst)
		}
	case x86.MOVS, x86.STOS:
		count := uint64(1)
		if inst.Rep {
			count = c.Regs[x86.RCX]
		}
		esz := uint64(size)
		for i := uint64(0); i < count; i++ {
			var v uint64
			if inst.Mn == x86.MOVS {
				v = c.ReadMem(c.Regs[x86.RSI], size)
				c.Regs[x86.RSI] += esz
			} else {
				v = c.Regs[x86.RAX] & maskFor(size)
			}
			c.WriteMem(c.Regs[x86.RDI], size, v)
			c.Regs[x86.RDI] += esz
		}
		if inst.Rep {
			c.Regs[x86.RCX] = 0
		}
	case x86.BSWAP:
		v := c.readOp(ops[0])
		if size == 8 {
			c.writeOp(ops[0], bits.ReverseBytes64(v))
		} else {
			c.writeOp(ops[0], uint64(bits.ReverseBytes32(uint32(v))))
		}
	case x86.PUSH:
		c.push(uint64(int64(signExtend(c.readOp(ops[0]), ops[0].Size))))
	case x86.POP:
		c.writeOp(ops[0], c.pop())
	case x86.LEAVE:
		c.Regs[x86.RSP] = c.Regs[x86.RBP]
		c.Regs[x86.RBP] = c.pop()
	case x86.XCHG:
		a, b := c.readOp(ops[0]), c.readOp(ops[1])
		c.writeOp(ops[0], b)
		c.writeOp(ops[1], a)
	case x86.CBW, x86.CWDE, x86.CDQE:
		n := inst.Mn.Width()
		c.writeOp(x86.RegOp(x86.RAX, n), signExtend(c.Regs[x86.RAX], n/2))
	case x86.CWD, x86.CDQ, x86.CQO:
		n := inst.Mn.Width()
		c.writeOp(x86.RegOp(x86.RDX, n), uint64(int64(signExtend(c.Regs[x86.RAX], n))>>63))
	case x86.SETCC:
		v := uint64(0)
		if c.Cond(inst.Cond) {
			v = 1
		}
		c.writeOp(ops[0], v)
	case x86.CMOVCC:
		if c.Cond(inst.Cond) {
			c.writeOp(ops[0], c.readOp(ops[1]))
		}
	case x86.JMP:
		if tgt, ok := inst.Target(); ok {
			c.RIP = tgt
		} else {
			c.RIP = c.readOp(ops[0])
		}
		return inst, nil
	case x86.JCC:
		if c.Cond(inst.Cond) {
			tgt, _ := inst.Target()
			c.RIP = tgt
			return inst, nil
		}
	case x86.CALL:
		tgt, ok := inst.Target()
		if !ok {
			tgt = c.readOp(ops[0])
		}
		if name, isPLT := c.img.PLTName(tgt); isPLT {
			c.runExternal(name)
			break // fall through to next
		}
		c.push(next)
		c.RIP = tgt
		return inst, nil
	case x86.RET:
		ra := c.pop()
		if len(ops) == 1 {
			c.Regs[x86.RSP] += uint64(ops[0].Imm)
		}
		if ra == Sentinel {
			c.Halted = true
			c.RIP = ra
			return inst, nil
		}
		c.RIP = ra
		return inst, nil
	default:
		return inst, fmt.Errorf("emu: no semantics for %s", inst.String())
	}
	c.RIP = next
	return inst, nil
}

// runExternal dispatches a call into a PLT stub.
func (c *CPU) runExternal(name string) {
	if h, ok := c.Externals[name]; ok && h != nil {
		h(c)
		return
	}
	switch name {
	case "exit", "abort", "_exit", "err", "errx", "__stack_chk_fail", "pthread_exit":
		c.Halted = true
		return
	}
	defaultExternal(c)
}

func (c *CPU) stepIMul(inst x86.Inst) error {
	ops := inst.Ops
	switch len(ops) {
	case 1:
		size := ops[0].Size
		a := int64(signExtend(c.Regs[x86.RAX]&maskFor(size), size))
		b := int64(signExtend(c.readOp(ops[0]), size))
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		if a < 0 {
			hi -= uint64(b)
		}
		if b < 0 {
			hi -= uint64(a)
		}
		if size < 8 {
			full := uint64(a * b)
			lo = full & maskFor(size)
			hi = (full >> (uint(size) * 8)) & maskFor(size)
		}
		c.writeOp(x86.RegOp(x86.RAX, size), lo&maskFor(size))
		c.writeOp(x86.RegOp(x86.RDX, size), hi&maskFor(size))
	case 2:
		size := ops[0].Size
		a := int64(signExtend(c.readOp(ops[0]), size))
		b := int64(signExtend(c.readOp(ops[1]), size))
		c.writeOp(ops[0], uint64(a*b)&maskFor(size))
	default:
		size := ops[0].Size
		a := int64(signExtend(c.readOp(ops[1]), size))
		c.writeOp(ops[0], uint64(a*ops[2].Imm)&maskFor(size))
	}
	return nil
}

func (c *CPU) stepShift(inst x86.Inst) {
	ops := inst.Ops
	size := ops[0].Size
	countMask := uint64(63)
	if size < 8 {
		countMask = 31
	}
	n := c.readOp(ops[1]) & countMask
	a := c.readOp(ops[0])
	bitsN := uint64(size) * 8
	var res uint64
	switch inst.Mn {
	case x86.SHL:
		res = a << n
	case x86.SHR:
		res = a >> n
	case x86.SAR:
		res = uint64(int64(signExtend(a, size)) >> n)
	case x86.ROL:
		n %= bitsN
		if n == 0 {
			res = a
		} else {
			res = a<<n | a>>(bitsN-n)
		}
	case x86.ROR:
		n %= bitsN
		if n == 0 {
			res = a
		} else {
			res = a>>n | a<<(bitsN-n)
		}
	}
	res &= maskFor(size)
	if n != 0 && (inst.Mn == x86.SHL || inst.Mn == x86.SHR || inst.Mn == x86.SAR) {
		c.setFlagsZSP(res, size)
	}
	c.writeOp(ops[0], res)
}

func signExtend(v uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	}
	return v
}

// Transition is one executed control-flow edge (from, to).
type Transition struct {
	From, To uint64
}

// Run executes up to maxSteps instructions, recording every (from, to)
// transition between executable addresses. It stops at halts, sentinels or
// errors (the error is returned alongside the partial trace).
func (c *CPU) Run(maxSteps int) ([]Transition, error) {
	var trace []Transition
	for i := 0; i < maxSteps && !c.Halted; i++ {
		from := c.RIP
		_, err := c.Step()
		if err != nil {
			return trace, err
		}
		if !c.Halted {
			trace = append(trace, Transition{From: from, To: c.RIP})
		}
	}
	return trace, nil
}
