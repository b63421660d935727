// Package image wraps a parsed ELF binary as the fetch function of
// Definition 3.1: given an address it soundly retrieves a single decoded
// instruction, and it answers the read-only data and PLT queries the
// lifter needs (jump-table contents, external-function names).
//
// An Image is safe for concurrent readers: the parsed file and PLT map are
// immutable after construction, and the decode cache behind Fetch is
// guarded by a lock, so the pipeline's lift workers and the Step-2 triple
// checkers may share one image.
package image

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/elf64"
	"repro/internal/x86"
)

// ErrNotExecutable marks a Fetch at an address outside every executable
// section; callers dispatch with errors.Is instead of string-matching.
var ErrNotExecutable = errors.New("address not executable")

// Image is a loaded binary. The file and plt fields are read-only after
// FromFile returns; instCach is the only mutable state and is guarded by
// cacheMu (Step 2 checks vertices of one graph in parallel against a
// single image, and the pipeline shares images between lifts and checks).
type Image struct {
	file   *elf64.File
	textLo uint64
	textHi uint64
	plt    map[uint64]string
	raw    []byte

	cacheMu  sync.RWMutex
	instCach map[uint64]x86.Inst
}

// Load parses raw ELF bytes. Parse failures are returned wrapped, so the
// elf64 sentinels (elf64.ErrBadMagic, elf64.ErrTruncated) stay visible to
// errors.Is through this layer.
func Load(data []byte) (*Image, error) {
	f, err := elf64.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("image: load: %w", err)
	}
	im := FromFile(f)
	im.raw = data
	return im, nil
}

// FromFile wraps an already-parsed file.
func FromFile(f *elf64.File) *Image {
	im := &Image{file: f, plt: map[uint64]string{}, instCach: map[uint64]x86.Inst{}}
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

// Fetch decodes the single instruction at addr (Definition 3.1's fetch).
// Decoding is deterministic, so concurrent misses at the same address
// store the same instruction; the decode itself runs outside the lock.
func (im *Image) Fetch(addr uint64) (x86.Inst, error) {
	im.cacheMu.RLock()
	inst, ok := im.instCach[addr]
	im.cacheMu.RUnlock()
	if ok {
		return inst, nil
	}
	s := im.file.SectionAt(addr)
	if s == nil || s.Flags&elf64.SHFExecinstr == 0 || s.Data == nil {
		return x86.Inst{}, fmt.Errorf("image: %#x: %w", addr, ErrNotExecutable)
	}
	inst, err := x86.Decode(s.Data[addr-s.Addr:], addr)
	if err != nil {
		return x86.Inst{}, err
	}
	im.cacheMu.Lock()
	im.instCach[addr] = inst
	im.cacheMu.Unlock()
	return inst, nil
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
