package x86

import "fmt"

// Asm is a small one-pass assembler with label fixups, used by the
// synthetic-corpus compiler and by tests to build real machine code. All
// label branches use rel32 forms so instruction lengths are known at emit
// time; forward references are patched in Finish.
type Asm struct {
	base   uint64
	buf    []byte
	labels map[string]uint64
	fixups []fixup
	err    error
}

type fixup struct {
	pos   int    // offset of the Inst start within buf
	label string // target label
	inst  Inst   // instruction to re-encode once the label is known
}

// NewAsm returns an assembler whose first emitted byte lives at base.
func NewAsm(base uint64) *Asm {
	return &Asm{base: base, labels: map[string]uint64{}}
}

// PC returns the current virtual address.
func (a *Asm) PC() uint64 { return a.base + uint64(len(a.buf)) }

// Err returns the first emission error, if any.
func (a *Asm) Err() error { return a.err }

// Label binds name to the current address.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.setErr(fmt.Errorf("x86: duplicate label %q", name))
		return
	}
	a.labels[name] = a.PC()
}

// LabelAddr returns the bound address of a label (valid after Label).
func (a *Asm) LabelAddr(name string) (uint64, bool) {
	v, ok := a.labels[name]
	return v, ok
}

func (a *Asm) setErr(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Raw appends raw bytes (used for handcrafted byte sequences such as the
// overlapping-instruction example of Section 2).
func (a *Asm) Raw(b ...byte) { a.buf = append(a.buf, b...) }

// I encodes one instruction at the current address.
func (a *Asm) I(mn Mnemonic, ops ...Operand) {
	a.emit(Inst{Mn: mn, Ops: ops, Addr: a.PC()})
}

// Icc encodes one conditional-family instruction.
func (a *Asm) Icc(mn Mnemonic, cc Cond, ops ...Operand) {
	a.emit(Inst{Mn: mn, Cond: cc, Ops: ops, Addr: a.PC()})
}

func (a *Asm) emit(inst Inst) {
	b, err := Encode(inst)
	if err != nil {
		a.setErr(err)
		return
	}
	a.buf = append(a.buf, b...)
}

// Jmp emits jmp rel32 to the (possibly forward) label.
func (a *Asm) Jmp(label string) { a.branch(JMP, 0, label) }

// Call emits call rel32 to the label.
func (a *Asm) Call(label string) { a.branch(CALL, 0, label) }

// Jcc emits a conditional rel32 jump to the label.
func (a *Asm) Jcc(cc Cond, label string) { a.branch(JCC, cc, label) }

func (a *Asm) branch(mn Mnemonic, cc Cond, label string) {
	inst := Inst{Mn: mn, Cond: cc, Ops: []Operand{ImmOp(0, 4)}, Addr: a.PC()}
	if tgt, ok := a.labels[label]; ok {
		inst.Ops[0].Imm = int64(tgt)
		a.emit(inst)
		return
	}
	a.fixups = append(a.fixups, fixup{pos: len(a.buf), label: label, inst: inst})
	b, err := Encode(inst) // placeholder with target 0
	if err != nil {
		a.setErr(err)
		return
	}
	a.buf = append(a.buf, b...)
}

// LeaLabel emits lea dst, [rip + label]: the address of a (possibly
// forward) label materialised into a register.
func (a *Asm) LeaLabel(dst Reg, label string) {
	inst := Inst{Mn: LEA, Ops: []Operand{
		RegOp(dst, 8),
		{Kind: OpMem, Size: 8, Base: RIP, Index: RegNone, Scale: 1},
	}, Addr: a.PC()}
	if tgt, ok := a.labels[label]; ok {
		inst.Ops[1].Disp = int64(tgt)
		a.emit(inst)
		return
	}
	a.fixups = append(a.fixups, fixup{pos: len(a.buf), label: label, inst: inst})
	b, err := Encode(inst)
	if err != nil {
		a.setErr(err)
		return
	}
	a.buf = append(a.buf, b...)
}

// CallAbs emits call rel32 to an absolute address (e.g. a PLT stub).
func (a *Asm) CallAbs(target uint64) {
	a.emit(Inst{Mn: CALL, Ops: []Operand{ImmOp(int64(target), 4)}, Addr: a.PC()})
}

// Finish resolves all forward references and returns the machine code.
func (a *Asm) Finish() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	for _, f := range a.fixups {
		tgt, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("x86: undefined label %q", f.label)
		}
		inst := f.inst
		if inst.Mn == LEA {
			inst.Ops[1].Disp = int64(tgt)
		} else {
			inst.Ops = []Operand{ImmOp(int64(tgt), 4)}
		}
		b, err := Encode(inst)
		if err != nil {
			return nil, err
		}
		copy(a.buf[f.pos:], b)
	}
	return a.buf, nil
}
