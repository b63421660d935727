// Package elf64 is a from-scratch reader and writer for the subset of the
// ELF64 object format the lifter consumes: executable headers, program
// headers, section headers, string and symbol tables. The paper targets
// stripped COTS x86-64 ELF binaries; external function names are recovered
// from PLT-stub symbols (standing in for .rela.plt, which survives
// stripping). The writer produces small static executables for the
// synthetic corpus.
package elf64

// Constants for the ELF structures we read and write.
const (
	ELFCLASS64  = 2
	ELFDATA2LSB = 1
	EVCurrent   = 1
	ETExec      = 2
	ETDyn       = 3
	EMX8664     = 0x3e

	PTLoad = 1

	PFX = 1
	PFW = 2
	PFR = 4

	SHTNull     = 0
	SHTProgbits = 1
	SHTSymtab   = 2
	SHTStrtab   = 3
	SHTNobits   = 8

	SHFWrite     = 1
	SHFAlloc     = 2
	SHFExecinstr = 4

	STTFunc   = 2
	STTObject = 1
	STBGlobal = 1
)

// Header mirrors Elf64_Ehdr.
type Header struct {
	Type      uint16
	Machine   uint16
	Entry     uint64
	PhOff     uint64
	ShOff     uint64
	Flags     uint32
	EhSize    uint16
	PhEntSize uint16
	PhNum     uint16
	ShEntSize uint16
	ShNum     uint16
	ShStrNdx  uint16
}

// Prog mirrors Elf64_Phdr.
type Prog struct {
	Type   uint32
	Flags  uint32
	Off    uint64
	VAddr  uint64
	PAddr  uint64
	FileSz uint64
	MemSz  uint64
	Align  uint64
}

// Section mirrors Elf64_Shdr plus its resolved name and data.
type Section struct {
	Name      string
	Type      uint32
	Flags     uint64
	Addr      uint64
	Off       uint64
	Size      uint64
	Link      uint32
	Info      uint32
	AddrAlign uint64
	EntSize   uint64
	Data      []byte // nil for SHT_NOBITS; read-only when parsed (see Parse)
}

// Symbol mirrors Elf64_Sym with its resolved name.
type Symbol struct {
	Name  string
	Info  byte
	Other byte
	Shndx uint16
	Value uint64
	Size  uint64
}

// IsFunc reports whether the symbol is a function symbol.
func (s Symbol) IsFunc() bool { return s.Info&0xf == STTFunc }

// File is a parsed (or to-be-written) ELF binary.
type File struct {
	Header   Header
	Progs    []Prog
	Sections []Section
	Symbols  []Symbol
}

// Section returns the section with the given name, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// SectionAt returns the allocated section containing the virtual address,
// or nil.
func (f *File) SectionAt(addr uint64) *Section {
	for i := range f.Sections {
		s := &f.Sections[i]
		if s.Flags&SHFAlloc != 0 && addr >= s.Addr && addr < s.Addr+s.Size {
			return s
		}
	}
	return nil
}

// ReadAt copies size bytes of initialised data at the virtual address.
// It reports false if the range is not fully inside one section's data
// (e.g. .bss).
func (f *File) ReadAt(addr uint64, size int) ([]byte, bool) {
	s := f.SectionAt(addr)
	if s == nil || s.Data == nil {
		return nil, false
	}
	off := addr - s.Addr
	if off+uint64(size) > uint64(len(s.Data)) {
		return nil, false
	}
	out := make([]byte, size)
	copy(out, s.Data[off:])
	return out, true
}

// FuncSymbols returns the global function symbols (what `nm` reports as
// externally exposed functions for shared objects).
func (f *File) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.IsFunc() && s.Info>>4 == STBGlobal && s.Value != 0 {
			out = append(out, s)
		}
	}
	return out
}

// SymbolAt returns the symbol whose value is exactly addr, if any.
func (f *File) SymbolAt(addr uint64) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Value == addr {
			return s, true
		}
	}
	return Symbol{}, false
}
