package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<63)
	buf = AppendString(buf, "hello")
	buf = AppendString(buf, "")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendUint64(buf, 0xdeadbeefcafef00d)

	d := NewDecoder(buf)
	if v := d.Uvarint("a"); v != 0 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := d.Uvarint("b"); v != 1<<63 {
		t.Fatalf("uvarint: %#x", v)
	}
	if s := d.String("c"); s != "hello" {
		t.Fatalf("string: %q", s)
	}
	if s := d.String("d"); s != "" {
		t.Fatalf("string: %q", s)
	}
	if b := d.ByteSlice("e"); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", b)
	}
	if v := d.Uint64("f"); v != 0xdeadbeefcafef00d {
		t.Fatalf("uint64: %#x", v)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(d.Rest()) != 0 {
		t.Fatalf("rest: %d bytes", len(d.Rest()))
	}
}

func TestDecoderTruncation(t *testing.T) {
	cases := map[string]func(d *Decoder){
		"byte":    func(d *Decoder) { d.Byte("x") },
		"uvarint": func(d *Decoder) { d.Uvarint("x") },
		"string":  func(d *Decoder) { d.String("x") },
		"uint64":  func(d *Decoder) { d.Uint64("x") },
	}
	for name, read := range cases {
		d := NewDecoder(nil)
		read(d)
		if d.Err() == nil {
			t.Errorf("%s on empty input must fail", name)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x05}) // string length 5, but no bytes follow
	_ = d.String("s")
	first := d.Err()
	if first == nil {
		t.Fatal("truncated string must fail")
	}
	// Later reads are no-ops returning zero values, error unchanged.
	if v := d.Uvarint("later"); v != 0 {
		t.Fatalf("read after error: %d", v)
	}
	if b := d.Byte("later"); b != 0 {
		t.Fatalf("read after error: %d", b)
	}
	if d.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, d.Err())
	}
}

func TestDecoderLenGuard(t *testing.T) {
	// A count claiming more items than there are input bytes is rejected
	// before any decode loop trusts it.
	buf := AppendUvarint(nil, 1<<40)
	d := NewDecoder(buf)
	if n := d.Len("items"); n != 0 || d.Err() == nil {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, d.Err())
	}
	// A plausible count passes.
	buf = AppendUvarint(nil, 3)
	buf = append(buf, 1, 2, 3)
	d = NewDecoder(buf)
	if n := d.Len("items"); n != 3 || d.Err() != nil {
		t.Fatalf("count: n=%d err=%v", n, d.Err())
	}
}

func TestDecoderSkipAndPos(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3, 4})
	d.Skip(3)
	if d.Pos() != 3 || d.Err() != nil {
		t.Fatalf("pos=%d err=%v", d.Pos(), d.Err())
	}
	d.Skip(2)
	if d.Err() == nil {
		t.Fatal("skip past end must fail")
	}
}

func TestFailfMentionsOffset(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.Byte("a")
	d.Failf("boom %d", 7)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "offset 1") ||
		!strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("error: %v", err)
	}
}

// TestDecoderErrorsNameTheField: a failed read names its field, and a
// length or an index as part of it ("… length", "… index"); a read that
// succeeds builds no such name.
func TestDecoderErrorsNameTheField(t *testing.T) {
	for _, c := range []struct {
		data []byte
		read func(d *Decoder)
		want string
	}{
		{nil, func(d *Decoder) { d.Uvarint("edge kind") }, "wire: offset 0: bad uvarint edge kind"},
		{nil, func(d *Decoder) { d.UvarintOf("forest tree", "index") }, "wire: offset 0: bad uvarint forest tree index"},
		{nil, func(d *Decoder) { d.String("function name") }, "wire: offset 0: bad uvarint function name length"},
		{[]byte{5, 'a'}, func(d *Decoder) { d.String("function name") }, "wire: offset 1: truncated function name (5 bytes)"},
		{nil, func(d *Decoder) { d.ByteSlice("payload") }, "wire: offset 0: bad uvarint payload length"},
	} {
		d := NewDecoder(c.data)
		c.read(d)
		if d.Err() == nil || d.Err().Error() != c.want {
			t.Errorf("error %v, want %q", d.Err(), c.want)
		}
	}

	buf := AppendString(AppendUvarint(nil, 7), "hello")
	what := strings.Repeat("w", 40) // a name no concatenation fits on the stack
	if n := testing.AllocsPerRun(100, func() {
		d := NewDecoder(buf)
		d.UvarintOf(what, "index")
		d.String(what)
	}); n != 1 {
		t.Errorf("reading an index and a string: %v allocations, want 1 (the string)", n)
	}
}
