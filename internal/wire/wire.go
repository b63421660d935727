// Package wire holds the low-level primitives shared by the repo's binary
// serialization formats (the interned-expression table of package expr,
// the Hoare-graph records of package hoare, and the store and graph-file
// containers of package hgstore): uvarint-based append helpers and a
// first-error-sticky Decoder cursor. Formats built on it are
// deterministic byte-for-byte — no maps are iterated, no pointers or
// timestamps are written — which is what lets re-serialization be the
// byte identity and lets an unchanged corpus rewrite an identical store.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendUint64 appends v as 8 raw little-endian bytes (fixed width, for
// checksums and fingerprints where varint compression would obscure the
// format).
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// Decoder is a cursor over wire bytes. The first malformed read records an
// error and turns every later read into a no-op returning zero values, so
// decode loops check Err once instead of once per field.
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder returns a cursor over data, starting at offset 0.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Pos returns the current offset (the number of bytes consumed).
func (d *Decoder) Pos() int { return d.pos }

// Rest returns the unconsumed remainder of the input.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.data[d.pos:]
}

// Skip advances the cursor by n bytes (a sub-decoder consumed them).
func (d *Decoder) Skip(n int) {
	if d.err != nil {
		return
	}
	if n < 0 || d.pos+n > len(d.data) {
		d.Failf("skip of %d bytes out of range", n)
		return
	}
	d.pos += n
}

// Failf records a decoding error at the current offset (sticky: only the
// first error is kept).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// Byte reads one byte; what names the field in error messages.
func (d *Decoder) Byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.Failf("truncated %s", what)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.Failf("bad uvarint %s", what)
		return 0
	}
	d.pos += n
	return v
}

// Len reads a uvarint that counts items or bytes still to come, rejecting
// values larger than the unconsumed input (each item costs at least one
// byte, so a larger count is corruption — caught here, before a decode
// loop allocates for it).
func (d *Decoder) Len(what string) int {
	v := d.Uvarint(what)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.pos) {
		d.Failf("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

// Bytes reads n raw bytes. The returned slice aliases the input.
func (d *Decoder) Bytes(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > math.MaxInt32 || d.pos+int(n) > len(d.data) {
		d.Failf("truncated %s (%d bytes)", what, n)
		return nil
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String(what string) string {
	return string(d.Bytes(d.Uvarint(what+" length"), what))
}

// ByteSlice reads a length-prefixed byte slice, copied out of the input.
func (d *Decoder) ByteSlice(what string) []byte {
	b := d.Bytes(d.Uvarint(what+" length"), what)
	if d.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Uint64 reads 8 raw little-endian bytes.
func (d *Decoder) Uint64(what string) uint64 {
	b := d.Bytes(8, what)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
