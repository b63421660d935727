package x86

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// checkDecode asserts Decode's contract on one input. Decode returns an
// instruction with 0 < Len <= len(code), or a *DecodeError, and never
// panics; the instruction decodes identically from exactly its own bytes
// and from no strict prefix of them; and when Encode accepts it,
// Decode(Encode(i)) has the same mnemonic, condition, rep flag and
// operands.
func checkDecode(t testing.TB, code []byte) {
	t.Helper()
	const addr = 0x400000
	inst, err := Decode(code, addr)
	if err != nil {
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("% x: error %T %v, want *DecodeError", code, err, err)
		}
		return
	}
	if inst.Len <= 0 || inst.Len > len(code) || inst.Mn == BAD {
		t.Fatalf("% x: decoded %q with length %d", code, inst.String(), inst.Len)
	}
	_ = inst.String()
	own := code[:inst.Len]
	if again, err := Decode(own, addr); err != nil || !reflect.DeepEqual(again, inst) {
		t.Fatalf("% x: re-decode of its own bytes gives %q %v, want %q", own, again.String(), err, inst.String())
	}
	for cut := 0; cut < inst.Len; cut++ {
		if pre, err := Decode(code[:cut], addr); err == nil {
			t.Fatalf("% x: strict prefix % x decodes as %q", own, code[:cut], pre.String())
		}
	}
	b, err := Encode(inst)
	if err != nil {
		return
	}
	got, err := Decode(b, addr)
	if err != nil || got.Mn != inst.Mn || got.Cond != inst.Cond || got.Rep != inst.Rep || !reflect.DeepEqual(got.Ops, inst.Ops) {
		t.Fatalf("% x (%q) re-encodes as % x, which decodes as %q %v\n  ops %+v\n  got %+v",
			own, inst.String(), b, got.String(), err, inst.Ops, got.Ops)
	}
}

// FuzzDecode checks Decode's contract on arbitrary bytes. The corpus in
// testdata/fuzz/FuzzDecode holds the encodings a prefix or REX byte turns
// into another instruction.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x55})
	f.Add([]byte{0x48, 0x8d, 0x04, 0xbd, 0x00, 0x10, 0x40, 0x00})
	f.Add([]byte{0xf3, 0x0f, 0x1e, 0xfa})
	f.Fuzz(func(t *testing.T, code []byte) { checkDecode(t, code) })
}

// TestDecodeNeverPanics drives checkDecode over seeded random byte soup of
// 1–16 bytes.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	buf := make([]byte, 16)
	for trial := 0; trial < 200000; trial++ {
		code := buf[:1+rng.Intn(len(buf))]
		for i := range code {
			code[i] = byte(rng.Intn(256))
		}
		checkDecode(t, code)
	}
}

// TestDecodeTruncationMonotone drives checkDecode over seeded 15-byte
// inputs, the longest an instruction may be, until 3000 decode.
func TestDecodeTruncationMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	buf := make([]byte, 15)
	checked := 0
	for trial := 0; trial < 100000 && checked < 3000; trial++ {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		if _, err := Decode(buf, 0); err == nil {
			checked++
		}
		checkDecode(t, buf)
	}
	if checked == 0 {
		t.Fatal("no instructions decoded")
	}
}
