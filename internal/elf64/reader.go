package elf64

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// Sentinel parse failures, for errors.Is dispatch: a truncated image may
// be worth re-fetching, a wrong-format one never is.
var (
	// ErrBadMagic marks an image that is not ELF64/LSB/x86-64 at all, or
	// whose header tables are not laid out as ELF64 tables.
	ErrBadMagic = errors.New("bad magic")
	// ErrTruncated marks an image whose headers point past its end.
	ErrTruncated = errors.New("truncated image")
)

// ParseError reports a malformed ELF image. It wraps one of the sentinel
// failures above, so both errors.Is(err, ErrTruncated) and
// errors.As(err, *ParseError) work on a Parse error.
type ParseError struct {
	Reason string
	Err    error // the sentinel category, if any
}

func (e *ParseError) Error() string { return "elf64: " + e.Reason }

// Unwrap exposes the sentinel category to errors.Is.
func (e *ParseError) Unwrap() error { return e.Err }

func parseErr(sentinel error, format string, args ...any) error {
	return &ParseError{Reason: fmt.Sprintf(format, args...), Err: sentinel}
}

var le = binary.LittleEndian

// Parse reads an ELF64 little-endian x86-64 image from memory. The result
// does not alias b: the sections' data is copied out, each byte once (see
// shareSectionData), so the caller may reuse b. The section and symbol
// names are substrings of that copy (see names), so nothing may write into
// a section's Data.
func Parse(b []byte) (*File, error) {
	if len(b) < 64 {
		return nil, parseErr(ErrTruncated, "image too small (%d bytes)", len(b))
	}
	if b[0] != 0x7f || b[1] != 'E' || b[2] != 'L' || b[3] != 'F' {
		return nil, parseErr(ErrBadMagic, "bad magic % x", b[:4])
	}
	if b[4] != ELFCLASS64 {
		return nil, parseErr(ErrBadMagic, "not ELFCLASS64")
	}
	if b[5] != ELFDATA2LSB {
		return nil, parseErr(ErrBadMagic, "not little-endian")
	}
	f := &File{}
	h := &f.Header
	h.Type = le.Uint16(b[16:])
	h.Machine = le.Uint16(b[18:])
	if h.Machine != EMX8664 {
		return nil, parseErr(ErrBadMagic, "not x86-64 (machine %#x)", h.Machine)
	}
	h.Entry = le.Uint64(b[24:])
	h.PhOff = le.Uint64(b[32:])
	h.ShOff = le.Uint64(b[40:])
	h.Flags = le.Uint32(b[48:])
	h.EhSize = le.Uint16(b[52:])
	h.PhEntSize = le.Uint16(b[54:])
	h.PhNum = le.Uint16(b[56:])
	h.ShEntSize = le.Uint16(b[58:])
	h.ShNum = le.Uint16(b[60:])
	h.ShStrNdx = le.Uint16(b[62:])

	// A table whose entries are smaller than the header each one holds
	// overlaps itself. With entry size 0, 2¹⁶ section headers would all
	// re-read one header and copy its section data 2¹⁶ times.
	if h.PhNum > 0 && h.PhEntSize < 56 {
		return nil, parseErr(ErrBadMagic, "program header entry size %d < 56", h.PhEntSize)
	}
	if h.ShNum > 0 && h.ShEntSize < 64 {
		return nil, parseErr(ErrBadMagic, "section header entry size %d < 64", h.ShEntSize)
	}

	// Program headers.
	for i := 0; i < int(h.PhNum); i++ {
		off := h.PhOff + uint64(i)*uint64(h.PhEntSize)
		if !within(b, off, 56) {
			return nil, parseErr(ErrTruncated, "program header %d out of range", i)
		}
		p := b[off:]
		f.Progs = append(f.Progs, Prog{
			Type:   le.Uint32(p),
			Flags:  le.Uint32(p[4:]),
			Off:    le.Uint64(p[8:]),
			VAddr:  le.Uint64(p[16:]),
			PAddr:  le.Uint64(p[24:]),
			FileSz: le.Uint64(p[32:]),
			MemSz:  le.Uint64(p[40:]),
			Align:  le.Uint64(p[48:]),
		})
	}

	// Section headers (names resolved after reading shstrtab). The lists
	// are sized for the headers b can hold, so a hostile count allocates
	// no more than the file backs.
	var nameOffs []uint32
	if h.ShNum > 0 && h.ShOff <= uint64(len(b)) {
		n := min(uint64(h.ShNum), (uint64(len(b))-h.ShOff)/uint64(h.ShEntSize))
		f.Sections = make([]Section, 0, n)
		nameOffs = make([]uint32, 0, n)
	}
	for i := 0; i < int(h.ShNum); i++ {
		off := h.ShOff + uint64(i)*uint64(h.ShEntSize)
		if !within(b, off, 64) {
			return nil, parseErr(ErrTruncated, "section header %d out of range", i)
		}
		s := b[off:]
		sec := Section{
			Type:      le.Uint32(s[4:]),
			Flags:     le.Uint64(s[8:]),
			Addr:      le.Uint64(s[16:]),
			Off:       le.Uint64(s[24:]),
			Size:      le.Uint64(s[32:]),
			Link:      le.Uint32(s[40:]),
			Info:      le.Uint32(s[44:]),
			AddrAlign: le.Uint64(s[48:]),
			EntSize:   le.Uint64(s[56:]),
		}
		if sec.Type != SHTNobits && sec.Type != SHTNull && sec.Size > 0 {
			if !within(b, sec.Off, sec.Size) {
				return nil, parseErr(ErrTruncated, "section %d data out of range", i)
			}
			sec.Data = b[sec.Off : sec.Off+sec.Size] // until shareSectionData copies it
		}
		f.Sections = append(f.Sections, sec)
		nameOffs = append(nameOffs, le.Uint32(s))
	}

	shareSectionData(b, f.Sections)

	// Resolve section names.
	var shstr []byte
	if int(h.ShStrNdx) < len(f.Sections) {
		shstr = f.Sections[h.ShStrNdx].Data
	}
	names(shstr, nameOffs, func(i int, name string) { f.Sections[i].Name = name })

	// Symbols.
	symtab := f.Section(".symtab")
	if symtab != nil {
		var strtab []byte
		if int(symtab.Link) < len(f.Sections) {
			strtab = f.Sections[symtab.Link].Data
		}
		offs := make([]uint32, len(symtab.Data)/24)
		f.Symbols = make([]Symbol, 0, len(offs))
		for i := range offs {
			s := symtab.Data[i*24:]
			offs[i] = le.Uint32(s)
			f.Symbols = append(f.Symbols, Symbol{
				Info:  s[4],
				Other: s[5],
				Shndx: le.Uint16(s[6:]),
				Value: le.Uint64(s[8:]),
				Size:  le.Uint64(s[16:]),
			})
		}
		names(strtab, offs, func(i int, name string) { f.Symbols[i].Name = name })
	}
	return f, nil
}

// shareSectionData copies the file ranges the sections' data occupies into
// one buffer and points each section's Data at its bytes there, as a
// capped subslice. Ranges are merged where they overlap, so a byte is
// copied once however many sections cover it: a hostile table of sections
// that all span the file costs one copy of the file, not one per header,
// and a well-formed file copies what it did with a copy per section. Data
// is shared between overlapping sections; no reader writes into it.
func shareSectionData(b []byte, secs []Section) {
	spans := make([][2]uint64, 0, len(secs)) // [off, end) of each section with data, then merged
	for _, s := range secs {
		if s.Data != nil {
			spans = append(spans, [2]uint64{s.Off, s.Off + s.Size})
		}
	}
	slices.SortFunc(spans, func(x, y [2]uint64) int { return cmp.Compare(x[0], y[0]) })
	merged := spans[:0]
	for _, sp := range spans {
		if n := len(merged); n > 0 && sp[0] <= merged[n-1][1] {
			merged[n-1][1] = max(merged[n-1][1], sp[1])
			continue
		}
		merged = append(merged, sp)
	}
	at := make([]uint64, len(merged)) // where each merged range starts in buf
	total := uint64(0)
	for i, sp := range merged {
		at[i] = total
		total += sp[1] - sp[0]
	}
	buf := make([]byte, total)
	for i, sp := range merged {
		copy(buf[at[i]:], b[sp[0]:sp[1]])
	}
	for i := range secs {
		s := &secs[i]
		if s.Data == nil {
			continue
		}
		// The last merged range starting at or before the section holds it.
		j := sort.Search(len(merged), func(j int) bool { return merged[j][0] > s.Off }) - 1
		lo := at[j] + s.Off - merged[j][0]
		s.Data = buf[lo : lo+s.Size : lo+s.Size]
	}
}

// within reports whether the size bytes at offset off lie inside b. It
// compares against the room left after off, so a hostile offset near 2⁶⁴
// cannot wrap the sum back into range. (A header's off is the table offset
// plus at most 2¹⁶ entries of at most 2¹⁶ bytes: once entry 0 is within b,
// later sums stay far below 2⁶⁴.)
func within(b []byte, off, size uint64) bool {
	n := uint64(len(b))
	return off <= n && size <= n-off
}

// names calls set(i, name) with the NUL-terminated string at offs[i] in
// the string table tab, for every offset inside it (a name without a NUL
// runs to the end of the table). tab must be part of the parse's private copy (shareSectionData),
// which nothing writes into: the table is read as one string without a
// copy, and every name is a substring of it. Each table byte is scanned
// for a NUL at most once: the offsets are visited in ascending order, and
// the NUL found for one offset ends the next name too while it lies at or
// beyond it. So N names that start in one NUL-free run of L bytes cost one
// scan of the run and no copy, not N scans and copies of up to L bytes.
func names(tab []byte, offs []uint32, set func(i int, name string)) {
	s := unsafe.String(unsafe.SliceData(tab), len(tab))
	order := make([]int32, len(offs)) // 2³¹ names would take a 48 GB file
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(offs[a], offs[b]) })
	end := -1 // where the last name found ends: its NUL, or len(s)
	for _, i := range order {
		off := int(offs[i])
		if off >= len(s) {
			break // so are all later offsets
		}
		if end < off {
			end = len(s)
			if n := strings.IndexByte(s[off:], 0); n >= 0 {
				end = off + n
			}
		}
		set(int(i), s[off:end])
	}
}
