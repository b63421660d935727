// Package image wraps a parsed ELF binary as the fetch function of
// Definition 3.1: given an address it soundly retrieves a single decoded
// instruction, and it answers the read-only data and PLT queries the
// lifter needs (jump-table contents, external-function names).
//
// An Image is immutable once built: nothing writes to it after Load or
// FromFile returns, so the lift workers and the Step-2 triple checkers
// share one image without locks. Fetch keeps no cache: each call decodes
// the bytes afresh, and the caller that wants an instruction again keeps
// it (a Hoare graph's Instrs).
package image

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/elf64"
	"repro/internal/x86"
)

// ErrNotExecutable marks a Fetch at an address outside every executable
// section; callers dispatch with errors.Is instead of string-matching.
var ErrNotExecutable = errors.New("address not executable")

// Image is a loaded binary. Every field is set while the image is built
// and read-only afterwards.
type Image struct {
	file   *elf64.File
	textLo uint64
	textHi uint64
	plt    map[uint64]string
	raw    []byte
}

// Load parses raw ELF bytes. Parse failures are returned wrapped, so the
// elf64 sentinels (elf64.ErrBadMagic, elf64.ErrTruncated) stay visible to
// errors.Is through this layer.
func Load(data []byte) (*Image, error) {
	f, err := elf64.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("image: load: %w", err)
	}
	return build(f, data), nil
}

// FromFile wraps an already-parsed file.
func FromFile(f *elf64.File) *Image { return build(f, nil) }

// build wraps a parsed file and the raw bytes it was parsed from (nil
// when unknown).
func build(f *elf64.File, raw []byte) *Image {
	im := &Image{file: f, plt: map[uint64]string{}, raw: raw}
	for _, s := range f.Sections {
		if s.Flags&elf64.SHFExecinstr != 0 && s.Flags&elf64.SHFAlloc != 0 {
			if im.textLo == 0 || s.Addr < im.textLo {
				im.textLo = s.Addr
			}
			if s.Addr+s.Size > im.textHi {
				im.textHi = s.Addr + s.Size
			}
		}
	}
	for _, sym := range f.Symbols {
		if name, ok := strings.CutSuffix(sym.Name, "@plt"); ok {
			im.plt[sym.Value] = name
		}
	}
	return im
}

// File exposes the underlying parsed ELF.
func (im *Image) File() *elf64.File { return im.file }

// Raw returns the ELF bytes the image was loaded from, or nil for an
// image built with FromFile (which never saw the raw file). The store
// hashes them into a binary task's key.
func (im *Image) Raw() []byte { return im.raw }

// Entry returns the binary's entry point.
func (im *Image) Entry() uint64 { return im.file.Header.Entry }

// TextRange returns the executable address range [lo, hi).
func (im *Image) TextRange() (lo, hi uint64) { return im.textLo, im.textHi }

// InText reports whether addr lies in an executable section.
func (im *Image) InText(addr uint64) bool {
	s := im.file.SectionAt(addr)
	return s != nil && s.Flags&elf64.SHFExecinstr != 0
}

// Fetch decodes the single instruction at addr (Definition 3.1's fetch):
// a bounds check, then x86.Decode of the section's bytes from addr on. It
// reads the image only, so any number of goroutines may fetch at once.
func (im *Image) Fetch(addr uint64) (x86.Inst, error) {
	s := im.file.SectionAt(addr)
	if s == nil || s.Flags&elf64.SHFExecinstr == 0 || s.Data == nil {
		return x86.Inst{}, fmt.Errorf("image: %#x: %w", addr, ErrNotExecutable)
	}
	return x86.Decode(s.Data[addr-s.Addr:], addr)
}

// IsReadOnly reports whether [addr, addr+size) lies entirely in mapped
// non-writable initialised data (e.g. .rodata or .text).
func (im *Image) IsReadOnly(addr uint64, size int) bool {
	s := im.file.SectionAt(addr)
	if s == nil || s.Data == nil || s.Flags&elf64.SHFWrite != 0 {
		return false
	}
	return addr+uint64(size) <= s.Addr+s.Size
}

// ReadRO reads a size-byte little-endian value from read-only data.
func (im *Image) ReadRO(addr uint64, size int) (uint64, bool) {
	if !im.IsReadOnly(addr, size) {
		return 0, false
	}
	b, ok := im.file.ReadAt(addr, size)
	if !ok {
		return 0, false
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, true
}

// IsMapped reports whether addr lies in any allocated section.
func (im *Image) IsMapped(addr uint64) bool { return im.file.SectionAt(addr) != nil }

// PLTName returns the external function name when addr is a PLT stub.
func (im *Image) PLTName(addr uint64) (string, bool) {
	name, ok := im.plt[addr]
	return name, ok
}

// FuncSymbols returns the exported function symbols (excluding PLT stubs).
func (im *Image) FuncSymbols() []elf64.Symbol {
	var out []elf64.Symbol
	for _, s := range im.file.FuncSymbols() {
		if _, isPLT := im.plt[s.Value]; !isPLT {
			out = append(out, s)
		}
	}
	return out
}

// SymbolName returns the symbol name at addr, if any.
func (im *Image) SymbolName(addr uint64) (string, bool) {
	s, ok := im.file.SymbolAt(addr)
	if !ok {
		return "", false
	}
	return s.Name, true
}

// ResolveFunc resolves a command-line function spec — an address (hex
// with a 0x prefix, or decimal) or a function symbol name — to the
// function's address and the name its lift reports: the symbol at that
// address, or sub_<hex> when there is none.
func (im *Image) ResolveFunc(spec string) (addr uint64, name string, err error) {
	if addr, err := strconv.ParseUint(spec, 0, 64); err == nil {
		if name, ok := im.SymbolName(addr); ok {
			return addr, name, nil
		}
		return addr, fmt.Sprintf("sub_%x", addr), nil
	}
	syms := im.FuncSymbols()
	for _, s := range syms {
		if s.Name == spec {
			return s.Value, spec, nil
		}
	}
	return 0, "", fmt.Errorf("no function %q (have %d symbols)", spec, len(syms))
}
