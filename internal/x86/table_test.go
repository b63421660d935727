package x86

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// rowInstances returns instructions of row r's shape: every register at
// every width the row admits (spl–dil and r8b–r15b included), memory
// operands of every addressing form, and displacements and immediates at
// their width boundaries.
func rowInstances(r *row) []Inst {
	const addr = 0x400000
	mems := func(size int) []Operand {
		out := []Operand{
			MemOp(RIP, RegNone, 1, addr+0x1234, size),
			MemOp(RIP, RegNone, 1, addr-0x7000_0000, size),
			MemOp(RegNone, RegNone, 1, 0x401000, size),
			MemOp(RegNone, RegNone, 1, math.MinInt32, size),
			MemOp(RegNone, R14, 8, -0x80, size),
		}
		for i, base := range GPRs {
			out = append(out, MemOp(base, RegNone, 1, 0, size)) // rsp/r12 take a SIB, rbp/r13 a zero disp8
			for j, disp := range []int64{127, -128, 128, -129, math.MaxInt32, math.MinInt32} {
				if (i+j)%3 == 0 {
					out = append(out, MemOp(base, RegNone, 1, disp, size))
				}
			}
			if idx := GPRs[(i+5)%16]; idx != RSP {
				out = append(out, MemOp(base, idx, uint8(1)<<(i%4), int64(i-8), size))
			}
		}
		return out
	}
	imms := func(size int) []Operand {
		w, vs := 1, []int64{0, 1, -1, 127, -128}
		switch r.imm {
		case i16:
			w, vs = 2, []int64{0, 8, 0xffff}
		case iZ, iV:
			if w = size; r.imm == iZ {
				w = min(size, 4)
			}
			lo := int64(-1) << (8*w - 1)
			vs = []int64{0, lo, -1 - lo, -1}
		}
		out := make([]Operand, len(vs))
		for i, v := range vs {
			out[i] = ImmOp(v, w)
		}
		return out
	}

	var widths []int
	for _, s := range []int{1, 2, 4, 8} {
		if int(r.w)&s != 0 {
			widths = append(widths, s)
		}
	}
	if r.w == 0 {
		widths = []int{0}
	}
	var out []Inst
	add := func(ops ...Operand) { out = append(out, Inst{Addr: addr, Mn: r.mn, Cond: r.cc, Ops: ops}) }
	for _, s := range widths {
		rmSize := s
		if r.rmw != 0 {
			rmSize = int(r.rmw)
		}
		rms := mems(rmSize)
		if r.form != fRegMem {
			for _, g := range GPRs {
				rms = append(rms, RegOp(g, rmSize))
			}
		}
		for k, rm := range rms {
			reg := RegOp(GPRs[(k*7)%16], s)
			im := imms(s)
			switch r.form {
			case fRM:
				add(rm)
			case fRMReg:
				add(rm, reg)
			case fRegRM, fRegMem:
				add(reg, rm)
			case fRMImm:
				add(rm, im[k%len(im)])
			case fRMOne:
				add(rm, ImmOp(1, 1))
			case fRMCL:
				add(rm, RegOp(RCX, 1))
			case fRegRMImm:
				add(reg, rm, im[k%len(im)])
			}
		}
		for k, g := range GPRs {
			im := imms(s)
			switch r.form {
			case fNone, fModRM, fTail:
				if k == 0 {
					add()
				}
			case fString:
				if k == 0 {
					add(Operand{Kind: OpNone, Size: s})
					out = append(out, Inst{Addr: addr, Mn: r.mn, Rep: true, Ops: []Operand{{Kind: OpNone, Size: s}}})
				}
			case fAccImm:
				add(RegOp(RAX, s), im[k%len(im)])
			case fOReg:
				add(RegOp(g, s))
			case fORegImm:
				add(RegOp(g, s), im[k%len(im)])
			case fAccOReg:
				if g != RAX { // 90 without REX.B is nop
					add(RegOp(RAX, s), RegOp(g, s))
				}
			case fImm:
				add(im[k%len(im)])
			case fRel:
				rel := []int64{0, 5, -128 + 2, 127 - 6, 0x1000, -0x7000_0000}[k%6]
				if r.imm == i8 && (rel < -100 || rel > 100) {
					rel = 2
				}
				add(ImmOp(addr+rel, 8))
			}
		}
	}
	return out
}

// TestTableRoundTrip pins decode(encode(i)) == i over the whole table:
// every row encodes instructions of its own shape, and Decode gives them
// back, both through the row itself and through the row Encode prefers.
func TestTableRoundTrip(t *testing.T) {
	same := func(a, b Inst) bool {
		return a.Mn == b.Mn && a.Cond == b.Cond && a.Rep == b.Rep && reflect.DeepEqual(a.Ops, b.Ops)
	}
	preferred := map[*row]int{}
	for i := range table {
		r := &table[i]
		insts := rowInstances(r)
		if len(insts) == 0 {
			t.Errorf("row %#x %s: no instances", r.op, r.mn)
		}
		for _, in := range insts {
			size, ok := r.fits(&in)
			if !ok {
				t.Fatalf("row %#x %s does not fit its own instance %s %+v", r.op, r.mn, in.String(), in.Ops)
			}
			b, err := r.encode(&in, size)
			if err != nil {
				t.Fatalf("row %#x: encode %s: %v", r.op, in.String(), err)
			}
			if got, err := Decode(b, in.Addr); err != nil || !same(got, in) {
				t.Fatalf("row %#x: %s encodes as % x, which decodes as %q %v\n  want %+v\n  got  %+v",
					r.op, in.String(), b, got.String(), err, in.Ops, got.Ops)
			}
			b, err = Encode(in)
			if err != nil {
				t.Fatalf("Encode(%s): %v", in.String(), err)
			}
			if got, err := Decode(b, in.Addr); err != nil || !same(got, in) {
				t.Fatalf("Encode(%s) = % x, which decodes as %q %v", in.String(), b, got.String(), err)
			}
			for _, p := range byMnemonic[in.Mn] {
				if _, ok := p.fits(&in); ok {
					preferred[p]++
					break
				}
			}
		}
	}
	// Rows Encode never prefers: each has an equivalent earlier row.
	decodeOnly := map[string]bool{}
	for i := range table {
		r := &table[i]
		if preferred[r] == 0 {
			decodeOnly[fmt.Sprintf("%#x/%d %s", r.op, int(r.ext)-1, r.mn)] = true
		}
	}
	want := map[string]bool{"0x90/-1 xchg": true, "0xf1f/-1 nop": true, "0xa8/-1 test": true, "0xa9/-1 test": true,
		"0xf6/1 test": true, "0xf7/1 test": true, "0xeb/-1 jmp": true}
	for n, mn := range shiftFamily {
		if mn != BAD {
			want[fmt.Sprintf("0xd0/%d %s", n, mn)] = true
			want[fmt.Sprintf("0xd1/%d %s", n, mn)] = true
		}
	}
	for cc := 0x70; cc < 0x80; cc++ {
		want[fmt.Sprintf("%#x/-1 j", cc)] = true
	}
	if !reflect.DeepEqual(decodeOnly, want) {
		t.Errorf("rows Encode never prefers:\n got %v\nwant %v", decodeOnly, want)
	}
}

// TestTableOpcodesAgreeOnModRM: Decode reads the ModRM byte before it
// picks a row, so every row of an opcode must agree on having one.
func TestTableOpcodesAgreeOnModRM(t *testing.T) {
	for op, rows := range byOpcode {
		for _, r := range rows {
			if r.form.hasModRM() != rows[0].form.hasModRM() {
				t.Errorf("opcode %#x: rows disagree on ModRM", op)
			}
		}
	}
}

// TestDecodePrefixesThatChangeTheInstruction: a prefix or REX byte that
// makes another instruction decodes as that instruction, or fails.
func TestDecodePrefixesThatChangeTheInstruction(t *testing.T) {
	for _, c := range []struct {
		bytes []byte
		want  string // "" for a *DecodeError
	}{
		// Without REX, byte registers 4–7 are ah, ch, dh and bh.
		{[]byte{0x88, 0xe0}, ""},       // mov al, ah
		{[]byte{0x0f, 0xb6, 0xc4}, ""}, // movzx eax, ah
		{[]byte{0xb4, 0x12}, ""},       // mov ah, 0x12
		{[]byte{0x84, 0xe4}, ""},       // test ah, ah
		{[]byte{0x86, 0xe0}, ""},       // xchg al, ah
		{[]byte{0x0f, 0x94, 0xc4}, ""}, // sete ah
		{[]byte{0x40, 0x88, 0xe0}, "mov al, spl"},
		{[]byte{0x41, 0x90}, "xchg eax, r8d"},
		{[]byte{0x49, 0x90}, "xchg rax, r8"},
		{[]byte{0x66, 0x90}, "nop"},
		{[]byte{0x63, 0xc0}, ""}, // movsxd without REX.W is a 32-bit move
		{[]byte{0x48, 0x63, 0xc0}, "movsxd rax, eax"},
		// 16-bit push and pop.
		{[]byte{0x66, 0x50}, ""},
		{[]byte{0x66, 0x6a, 0x01}, ""},
		{[]byte{0x66, 0x68, 0x34, 0x12, 0x90, 0x90}, ""}, // push imm16 is 4 bytes, not 6
		{[]byte{0x66, 0x8f, 0x00}, ""},
		{[]byte{0x66, 0xff, 0x30}, ""},
		{[]byte{0x66, 0x48, 0x50}, "push rax"},
		{[]byte{0xf3, 0x0f, 0xbd, 0xc0}, ""}, // lzcnt
		{[]byte{0xf3, 0x0f, 0xbc, 0xc0}, ""}, // tzcnt
		{[]byte{0x0f, 0xbd, 0xc0}, "bsr eax, eax"},
		// The accumulator sign extensions carry their width.
		{[]byte{0x66, 0x98}, "cbw"},
		{[]byte{0x98}, "cwde"},
		{[]byte{0x48, 0x98}, "cdqe"},
		{[]byte{0x49, 0x98}, "cdqe"},
		{[]byte{0x4c, 0x98}, "cdqe"},
		{[]byte{0x2e, 0x48, 0x98}, "cdqe"},
		{[]byte{0x66, 0x48, 0x98}, "cdqe"},
		{[]byte{0x66, 0x99}, "cwd"},
		{[]byte{0x99}, "cdq"},
		{[]byte{0x49, 0x99}, "cqo"},
		// fs and gs add a segment base the model does not have.
		{[]byte{0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0, 0, 0}, ""},
		{[]byte{0x65, 0x8b, 0x00}, ""},
		// 16-bit near branches, returns and leave; 16-bit bswap.
		{[]byte{0x66, 0xe8, 0, 0, 0, 0}, ""},
		{[]byte{0x66, 0xc3}, ""},
		{[]byte{0x66, 0xc9}, ""},
		{[]byte{0x66, 0xff, 0xe0}, ""},
		{[]byte{0x66, 0x0f, 0xc8}, ""},
		{[]byte{0xf2, 0xa4}, ""}, // repne movsb
		{[]byte{0xf3, 0xa4}, "rep movsb"},
		// Redundant prefixes up to the 15-byte limit.
		{append(bytes.Repeat([]byte{0x66}, 14), 0x90), "nop"},
		{append(bytes.Repeat([]byte{0x66}, 15), 0x90), ""},
	} {
		inst, err := Decode(c.bytes, 0)
		var de *DecodeError
		switch {
		case c.want == "" && !errors.As(err, &de):
			t.Errorf("% x: decoded %q, want a *DecodeError", c.bytes, inst.String())
		case c.want != "" && (err != nil || inst.String() != c.want || inst.Len != len(c.bytes)):
			t.Errorf("% x: got %q (len %d) %v, want %q", c.bytes, inst.String(), inst.Len, err, c.want)
		}
	}
}

// TestDecodeAllocs pins Decode's allocations: the operand slice of an
// instruction that has operands, and nothing else.
func TestDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		bytes []byte
		want  float64
	}{
		{[]byte{0x48, 0x8b, 0x44, 0x24, 0x08}, 1}, // mov rax, [rsp+8]
		{[]byte{0xc3}, 0},                         // ret
	} {
		if got := testing.AllocsPerRun(100, func() { _, _ = Decode(c.bytes, 0x401000) }); got != c.want {
			t.Errorf("% x: %v allocations, want %v", c.bytes, got, c.want)
		}
	}
}
