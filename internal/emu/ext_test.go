package emu

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/sem"
	"repro/internal/x86"
)

func TestBitOps(t *testing.T) {
	im := buildImage(t, func(a *x86.Asm) {
		a.I(x86.BTS, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 1)) // set bit 5
		a.I(x86.BTC, x86.RegOp(x86.RAX, 8), x86.ImmOp(0, 1)) // toggle bit 0
		a.I(x86.BTR, x86.RegOp(x86.RAX, 8), x86.ImmOp(5, 1)) // clear bit 5
		a.I(x86.BT, x86.RegOp(x86.RAX, 8), x86.ImmOp(0, 1))  // test bit 0 → CF
		a.Icc(x86.SETCC, x86.CondB, x86.RegOp(x86.RBX, 1))   // rbx = CF
		a.I(x86.RET)
	})
	c := New(im)
	c.Regs[x86.RAX] = 0
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[x86.RAX] != 1 {
		t.Fatalf("rax = %#x", c.Regs[x86.RAX])
	}
	if c.Regs[x86.RBX]&0xff != 1 {
		t.Fatalf("setc after bt: %#x", c.Regs[x86.RBX])
	}
}

func TestScanAndCount(t *testing.T) {
	im := buildImage(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(0x70, 4))
		a.I(x86.BSF, x86.RegOp(x86.RBX, 8), x86.RegOp(x86.RAX, 8))
		a.I(x86.BSR, x86.RegOp(x86.RCX, 8), x86.RegOp(x86.RAX, 8))
		a.I(x86.POPCNT, x86.RegOp(x86.RDX, 8), x86.RegOp(x86.RAX, 8))
		a.I(x86.BSWAP, x86.RegOp(x86.RAX, 8))
		a.I(x86.RET)
	})
	c := New(im)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[x86.RBX] != 4 || c.Regs[x86.RCX] != 6 || c.Regs[x86.RDX] != 3 {
		t.Fatalf("bsf=%d bsr=%d popcnt=%d", c.Regs[x86.RBX], c.Regs[x86.RCX], c.Regs[x86.RDX])
	}
	if c.Regs[x86.RAX] != 0x7000000000000000 {
		t.Fatalf("bswap: %#x", c.Regs[x86.RAX])
	}
}

func TestXaddCmpxchg(t *testing.T) {
	im := buildImage(t, func(a *x86.Asm) {
		a.I(x86.MOV, x86.RegOp(x86.RBX, 8), x86.ImmOp(10, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(32, 4))
		a.I(x86.XADD, x86.RegOp(x86.RBX, 8), x86.RegOp(x86.RCX, 8)) // rbx=42, rcx=10
		// cmpxchg: rax == rbx? then rbx := rdx; else rax := rbx.
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(42, 4))
		a.I(x86.MOV, x86.RegOp(x86.RDX, 8), x86.ImmOp(7, 4))
		a.I(x86.CMPXCHG, x86.RegOp(x86.RBX, 8), x86.RegOp(x86.RDX, 8))
		a.I(x86.RET)
	})
	c := New(im)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[x86.RBX] != 7 || c.Regs[x86.RCX] != 10 {
		t.Fatalf("xadd/cmpxchg: rbx=%d rcx=%d", c.Regs[x86.RBX], c.Regs[x86.RCX])
	}
	if !c.Flags[x86.ZF] {
		t.Fatal("cmpxchg equal must set ZF")
	}
}

// TestDifferentialExtendedISA cross-checks the symbolic semantics of the
// bit-manipulation family against the emulator on concrete inputs.
func TestDifferentialExtendedISA(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX}
	for trial := 0; trial < 40; trial++ {
		r1 := regs[rng.Intn(len(regs))]
		r2 := regs[rng.Intn(len(regs))]
		mns := []x86.Mnemonic{x86.BTS, x86.BTR, x86.BTC, x86.BSF, x86.BSR, x86.POPCNT, x86.XADD, x86.BSWAP}
		mn := mns[rng.Intn(len(mns))]
		im := buildImage(t, func(a *x86.Asm) {
			switch mn {
			case x86.BTS, x86.BTR, x86.BTC:
				a.I(mn, x86.RegOp(r1, 8), x86.ImmOp(int64(rng.Intn(64)), 1))
			case x86.BSWAP:
				a.I(mn, x86.RegOp(r1, 8))
			default:
				if r1 == r2 {
					r2 = x86.RDX
					if r1 == x86.RDX {
						r1 = x86.RAX
					}
				}
				a.I(mn, x86.RegOp(r1, 8), x86.RegOp(r2, 8))
			}
			a.I(x86.RET)
		})
		init := map[x86.Reg]uint64{}
		for _, r := range regs {
			init[r] = rng.Uint64()
			if rng.Intn(4) == 0 {
				init[r] = 0 // exercise the zero cases of bsf/bsr
			}
		}

		c := New(im)
		for r, v := range init {
			c.Regs[r] = v
		}
		if _, err := c.Run(4); err != nil {
			t.Fatal(err)
		}

		mach := sem.NewMachine(im, sem.DefaultConfig())
		st := sem.NewState()
		for r, v := range init {
			st.Pred.SetReg(r, expr.Word(v))
		}
		inst, _ := im.Fetch(0x401000)
		outs, err := mach.Step(st, inst)
		if err != nil {
			t.Fatal(err)
		}
		// Undecided forks are allowed (cmpxchg); a concrete input makes
		// everything decided here, so expect one outcome.
		if len(outs) != 1 {
			t.Fatalf("trial %d (%s): %d outcomes", trial, inst.String(), len(outs))
		}
		srcZero := init[r2] == 0 && (mn == x86.BSF || mn == x86.BSR)
		for _, r := range regs {
			got := outs[0].State.Pred.Reg(r)
			w, ok := got.AsWord()
			if !ok {
				if srcZero && r == r1 {
					continue // dst undefined when the source is zero
				}
				t.Fatalf("trial %d (%s): %s symbolic: %v", trial, inst.String(), r, got)
			}
			if w != c.Regs[r] && !(srcZero && r == r1) {
				t.Fatalf("trial %d (%s): %s sem=%#x emu=%#x", trial, inst.String(), r, w, c.Regs[r])
			}
		}
	}
}

func TestStringOps(t *testing.T) {
	im := buildImage(t, func(a *x86.Asm) {
		// rep stosq: fill 4 qwords at [rdi] with rax.
		a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(0x11, 4))
		a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.ImmOp(4, 4))
		a.Raw(0xf3, 0x48, 0xab) // rep stosq
		// movsb once: copy a byte from [rsi] to [rdi].
		a.Raw(0xa4)
		a.I(x86.RET)
	})
	c := New(im)
	c.Regs[x86.RDI] = 0x7ffff000
	c.Regs[x86.RSI] = 0x7ffff000 // reads back the first fill byte
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := c.ReadMem(0x7ffff000+uint64(8*i), 8); got != 0x11 {
			t.Fatalf("stos fill at %d: %#x", i, got)
		}
	}
	if c.Regs[x86.RCX] != 0 {
		t.Fatalf("rcx after rep: %d", c.Regs[x86.RCX])
	}
	if c.Regs[x86.RDI] != 0x7ffff000+32+1 {
		t.Fatalf("rdi: %#x", c.Regs[x86.RDI])
	}
	if got := c.ReadMem(0x7ffff020, 1); got != 0x11 {
		t.Fatalf("movsb: %#x", got)
	}
}

func TestStringOpsDecode(t *testing.T) {
	cases := map[string][]byte{
		"rep stosq": {0xf3, 0x48, 0xab},
		"rep stosb": {0xf3, 0xaa},
		"stosd":     {0xab},
		"rep movsq": {0xf3, 0x48, 0xa5},
		"movsb":     {0xa4},
	}
	for want, bytes := range cases {
		inst, err := x86.Decode(bytes, 0)
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if inst.String() != want {
			t.Fatalf("% x: got %q want %q", bytes, inst.String(), want)
		}
		// Round trip through the encoder.
		enc, err := x86.Encode(inst)
		if err != nil {
			t.Fatalf("encode %s: %v", want, err)
		}
		again, err := x86.Decode(enc, 0)
		if err != nil || again.String() != want {
			t.Fatalf("re-decode %s: %q %v", want, again.String(), err)
		}
	}
}

// TestDifferentialMemoryOps cross-checks symbolic vs concrete execution on
// random sequences that traffic through stack slots with mixed widths. All
// state (registers and seeded slots) is established by instructions, so
// both engines interpret exactly the same program.
func TestDifferentialMemoryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX}
	sizes := []int{1, 2, 4, 8}
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		type op struct {
			load bool
			r    x86.Reg
			off  int64
			size int
		}
		var ops []op
		for i := 0; i < n; i++ {
			ops = append(ops, op{
				load: rng.Intn(2) == 0,
				r:    regs[rng.Intn(len(regs))],
				off:  -8 * int64(1+rng.Intn(6)),
				size: sizes[rng.Intn(len(sizes))],
			})
		}
		seeds := make([]int64, 8)
		for i := range seeds {
			seeds[i] = int64(rng.Uint64())
		}
		im := buildImage(t, func(a *x86.Asm) {
			// Seed slots -64..-8 and the four registers via instructions.
			for i, off := int64(0), int64(-64); off < 0; i, off = i+1, off+8 {
				a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(seeds[i], 8))
				a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, off, 8), x86.RegOp(x86.RAX, 8))
			}
			for i, r := range regs {
				a.I(x86.MOV, x86.RegOp(r, 8), x86.ImmOp(seeds[i]^0x5555, 8))
			}
			for _, o := range ops {
				if o.load {
					a.I(x86.MOV, x86.RegOp(o.r, o.size), x86.MemOp(x86.RSP, x86.RegNone, 1, o.off, o.size))
				} else {
					a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, o.off, o.size), x86.RegOp(o.r, o.size))
				}
			}
			a.I(x86.RET)
		})
		total := 16 + len(regs) + n

		c := New(im)
		if _, err := c.Run(total + 2); err != nil {
			t.Fatal(err)
		}

		mach := sem.NewMachine(im, sem.DefaultConfig())
		st := sem.NewState()
		st.Pred.SetReg(x86.RSP, expr.V("rsp0"))
		addr := uint64(0x401000)
		for i := 0; i < total; i++ {
			inst, err := im.Fetch(addr)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := mach.Step(st, inst)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 1 {
				t.Fatalf("trial %d: %s forked %d ways", trial, inst.String(), len(outs))
			}
			st = outs[0].State
			addr, _ = outs[0].Resolved()
		}
		for _, r := range regs {
			got := st.Pred.Reg(r)
			w, ok := got.AsWord()
			if !ok {
				t.Fatalf("trial %d: %s symbolic after concrete program: %v", trial, r, got)
			}
			if w != c.Regs[r] {
				t.Fatalf("trial %d: %s sem=%#x emu=%#x", trial, r, w, c.Regs[r])
			}
		}
	}
}

// TestAccumulatorSignExtension runs cbw/cwde/cdqe and cwd/cdq/cqo in
// every prefix spelling against the hardware results: the width comes
// from the operand size, never from the first byte.
func TestAccumulatorSignExtension(t *testing.T) {
	const rax, rdx = 0x1111111180008080, 0x2222222222222222
	for _, c := range []struct {
		bytes            []byte
		wantRAX, wantRDX uint64
	}{
		{[]byte{0x66, 0x98}, 0x111111118000ff80, rdx},       // cbw
		{[]byte{0x98}, 0xffff8080, rdx},                     // cwde
		{[]byte{0x48, 0x98}, 0xffffffff80008080, rdx},       // cdqe
		{[]byte{0x49, 0x98}, 0xffffffff80008080, rdx},       // cdqe, REX.WB
		{[]byte{0x4c, 0x98}, 0xffffffff80008080, rdx},       // cdqe, REX.WR
		{[]byte{0x2e, 0x48, 0x98}, 0xffffffff80008080, rdx}, // cdqe after a segment prefix
		{[]byte{0x66, 0x48, 0x98}, 0xffffffff80008080, rdx}, // cdqe: REX.W overrides 66
		{[]byte{0x66, 0x99}, rax, 0x222222222222ffff},       // cwd
		{[]byte{0x99}, rax, 0xffffffff},                     // cdq
		{[]byte{0x48, 0x99}, rax, 0},                        // cqo
		{[]byte{0x49, 0x99}, rax, 0},                        // cqo, REX.WB
	} {
		im := buildImage(t, func(a *x86.Asm) {
			a.Raw(c.bytes...)
			a.I(x86.RET)
		})
		cpu := New(im)
		cpu.Regs[x86.RAX], cpu.Regs[x86.RDX] = rax, rdx
		if _, err := cpu.Run(10); err != nil {
			t.Fatalf("% x: %v", c.bytes, err)
		}
		if cpu.Regs[x86.RAX] != c.wantRAX || cpu.Regs[x86.RDX] != c.wantRDX {
			t.Errorf("% x: rax=%#x rdx=%#x, want rax=%#x rdx=%#x",
				c.bytes, cpu.Regs[x86.RAX], cpu.Regs[x86.RDX], c.wantRAX, c.wantRDX)
		}
	}
}
