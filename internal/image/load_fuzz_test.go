package image_test

// Hostile-header regression tests and the loader's fuzz target. Every
// edit below once made image.Load panic with "slice bounds out of range":
// elf64.Parse checked header and section offsets by adding in uint64, and
// an offset near 2⁶⁴ wrapped the sum back into range.

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elf64"
	"repro/internal/image"
)

// ELF64 header and section-header field offsets the edits write.
const (
	ePhOff    = 32
	eShOff    = 40
	ePhNum    = 56
	shEntSize = 64
	shOffset  = 24 // sh_offset within a section header
)

// hostileEdits are 8-byte header edits of a valid ELF, each placing one
// table or section just under 2⁶⁴.
var hostileEdits = []struct {
	name string
	edit func(b []byte)
}{
	{"phoff-wrap", func(b []byte) {
		binary.LittleEndian.PutUint64(b[ePhOff:], ^uint64(0)-7)
		binary.LittleEndian.PutUint16(b[ePhNum:], 1)
	}},
	{"shoff-wrap", func(b []byte) {
		binary.LittleEndian.PutUint64(b[eShOff:], ^uint64(0)-7)
	}},
	{"sh-offset-wrap", func(b []byte) {
		// Section 1 is the weird-edge binary's .text, which has data.
		sh := binary.LittleEndian.Uint64(b[eShOff:]) + shEntSize
		binary.LittleEndian.PutUint64(b[sh+shOffset:], ^uint64(0)-7)
	}},
}

func weirdEdgeELF(tb testing.TB) []byte {
	tb.Helper()
	s, err := corpus.WeirdEdge()
	if err != nil {
		tb.Fatal(err)
	}
	return s.Raw
}

// TestLoadHostileOffsets: each edit of the weird-edge binary is reported
// as a truncated image, wrapped so errors.As finds the *elf64.ParseError.
func TestLoadHostileOffsets(t *testing.T) {
	raw := weirdEdgeELF(t)
	if _, err := image.Load(raw); err != nil {
		t.Fatalf("unedited binary: %v", err)
	}
	for _, tc := range hostileEdits {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), raw...)
			tc.edit(b)
			im, err := image.Load(b)
			var pe *elf64.ParseError
			if im != nil || !errors.As(err, &pe) || !errors.Is(err, elf64.ErrTruncated) {
				t.Fatalf("Load = %v, %v; want a *elf64.ParseError wrapping ErrTruncated", im, err)
			}
		})
	}
}

// maxFetches caps the text-range walk: a section header may claim an
// executable range as wide as the address space.
const maxFetches = 1 << 12

// FuzzImageLoad: for any bytes, image.Load returns an image or an error,
// never a panic, and so does Fetch at every address a linear sweep of the
// loaded text range reaches. The seeds in testdata/fuzz/FuzzImageLoad are
// the weird-edge binary, its three hostile edits, a table of 200 section
// headers whose sections each span the whole 12,928-byte file (which
// Parse once copied per header), and a table of 200 section headers whose
// names all start in one 8,000-byte NUL-free run (which Parse once scanned
// and copied per name).
func FuzzImageLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := image.Load(data)
		if err != nil {
			if im != nil {
				t.Fatalf("Load returned an image and the error %v", err)
			}
			return
		}
		lo, hi := im.TextRange()
		for a, n := lo, 0; a < hi && n < maxFetches; n++ {
			inst, err := im.Fetch(a)
			if err != nil || inst.Len <= 0 {
				a++
				continue
			}
			a += uint64(inst.Len)
		}
	})
}
