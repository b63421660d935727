package elf64

import (
	"bytes"
	"fmt"
)

// Builder assembles a minimal static ELF64 executable (or shared-object-
// shaped image): caller-placed allocated sections, one PT_LOAD segment per
// section, a symbol table and the section name table.
type Builder struct {
	typ      uint16
	entry    uint64
	sections []Section
	symbols  []Symbol
}

// NewExec returns a builder for an ET_EXEC image.
func NewExec(entry uint64) *Builder { return &Builder{typ: ETExec, entry: entry} }

// NewShared returns a builder for an ET_DYN image (a shared object).
func NewShared() *Builder { return &Builder{typ: ETDyn} }

// AddSection registers an allocated progbits section at a fixed virtual
// address. Sections must not overlap.
func (b *Builder) AddSection(name string, flags uint64, addr uint64, data []byte) {
	b.sections = append(b.sections, Section{
		Name: name, Type: SHTProgbits, Flags: SHFAlloc | flags,
		Addr: addr, Size: uint64(len(data)), AddrAlign: 16,
		Data: append([]byte(nil), data...),
	})
}

// AddFunc registers a global function symbol.
func (b *Builder) AddFunc(name string, addr, size uint64) {
	b.symbols = append(b.symbols, Symbol{
		Name: name, Info: STBGlobal<<4 | STTFunc, Value: addr, Size: size,
	})
}

// AddObject registers a global data symbol.
func (b *Builder) AddObject(name string, addr, size uint64) {
	b.symbols = append(b.symbols, Symbol{
		Name: name, Info: STBGlobal<<4 | STTObject, Value: addr, Size: size,
	})
}

const pageSize = 0x1000

// Bytes serialises the image.
func (b *Builder) Bytes() ([]byte, error) {
	for i, s := range b.sections {
		for j := i + 1; j < len(b.sections); j++ {
			t := b.sections[j]
			if s.Addr < t.Addr+t.Size && t.Addr < s.Addr+s.Size {
				return nil, fmt.Errorf("elf64: sections %s and %s overlap", s.Name, t.Name)
			}
		}
	}

	// Build auxiliary tables: shstrtab, symtab, strtab.
	secs := append([]Section{{Type: SHTNull}}, b.sections...)

	strtab := []byte{0}
	symtab := make([]byte, 24) // null symbol
	for _, sym := range b.symbols {
		off := uint32(len(strtab))
		strtab = append(strtab, sym.Name...)
		strtab = append(strtab, 0)
		ent := make([]byte, 24)
		le.PutUint32(ent, off)
		ent[4] = sym.Info
		// Link symbols to the section containing them.
		for i, s := range secs {
			if s.Flags&SHFAlloc != 0 && sym.Value >= s.Addr && sym.Value < s.Addr+s.Size {
				le.PutUint16(ent[6:], uint16(i))
				break
			}
		}
		le.PutUint64(ent[8:], sym.Value)
		le.PutUint64(ent[16:], sym.Size)
		symtab = append(symtab, ent...)
	}
	symtabNdx := len(secs)
	strtabNdx := symtabNdx + 1
	secs = append(secs,
		Section{Name: ".symtab", Type: SHTSymtab, Size: uint64(len(symtab)),
			Link: uint32(strtabNdx), Info: 1, AddrAlign: 8, EntSize: 24, Data: symtab},
		Section{Name: ".strtab", Type: SHTStrtab, Size: uint64(len(strtab)),
			AddrAlign: 1, Data: strtab},
	)
	shstr := []byte{0}
	nameOffs := make([]uint32, 0, len(secs)+1)
	for _, s := range secs {
		if s.Name == "" {
			nameOffs = append(nameOffs, 0)
			continue
		}
		nameOffs = append(nameOffs, uint32(len(shstr)))
		shstr = append(shstr, s.Name...)
		shstr = append(shstr, 0)
	}
	shstrNameOff := uint32(len(shstr))
	shstr = append(shstr, ".shstrtab"...)
	shstr = append(shstr, 0)
	nameOffs = append(nameOffs, shstrNameOff)
	shstrNdx := len(secs)
	secs = append(secs, Section{Name: ".shstrtab", Type: SHTStrtab,
		Size: uint64(len(shstr)), AddrAlign: 1, Data: shstr})

	// Layout: ehdr, phdrs, section data, shdrs.
	nLoad := 0
	for _, s := range secs {
		if s.Flags&SHFAlloc != 0 {
			nLoad++
		}
	}
	off := uint64(64 + 56*nLoad)
	offs := make([]uint64, len(secs))
	for i := range secs {
		s := &secs[i]
		if s.Type == SHTNull || len(s.Data) == 0 {
			continue
		}
		if s.Flags&SHFAlloc != 0 {
			// Keep offset congruent to vaddr modulo the page size.
			delta := (s.Addr - off) % pageSize
			off += delta
		} else if off%8 != 0 {
			off += 8 - off%8
		}
		offs[i] = off
		off += uint64(len(s.Data))
	}
	if off%8 != 0 {
		off += 8 - off%8
	}
	shOff := off

	var out bytes.Buffer
	// ELF header.
	eh := make([]byte, 64)
	copy(eh, []byte{0x7f, 'E', 'L', 'F', ELFCLASS64, ELFDATA2LSB, EVCurrent})
	le.PutUint16(eh[16:], b.typ)
	le.PutUint16(eh[18:], EMX8664)
	le.PutUint32(eh[20:], EVCurrent)
	le.PutUint64(eh[24:], b.entry)
	le.PutUint64(eh[32:], 64) // phoff
	le.PutUint64(eh[40:], shOff)
	le.PutUint16(eh[52:], 64)
	le.PutUint16(eh[54:], 56)
	le.PutUint16(eh[56:], uint16(nLoad))
	le.PutUint16(eh[58:], 64)
	le.PutUint16(eh[60:], uint16(len(secs)))
	le.PutUint16(eh[62:], uint16(shstrNdx))
	out.Write(eh)

	// Program headers.
	for i, s := range secs {
		if s.Flags&SHFAlloc == 0 {
			continue
		}
		ph := make([]byte, 56)
		le.PutUint32(ph, PTLoad)
		flags := uint32(PFR)
		if s.Flags&SHFExecinstr != 0 {
			flags |= PFX
		}
		if s.Flags&SHFWrite != 0 {
			flags |= PFW
		}
		le.PutUint32(ph[4:], flags)
		le.PutUint64(ph[8:], offs[i])
		le.PutUint64(ph[16:], s.Addr)
		le.PutUint64(ph[24:], s.Addr)
		le.PutUint64(ph[32:], s.Size)
		le.PutUint64(ph[40:], s.Size)
		le.PutUint64(ph[48:], pageSize)
		out.Write(ph)
	}

	// Section data.
	for i, s := range secs {
		if len(s.Data) == 0 {
			continue
		}
		pad := int(offs[i]) - out.Len()
		if pad < 0 {
			return nil, fmt.Errorf("elf64: layout error for %s", s.Name)
		}
		out.Write(make([]byte, pad))
		out.Write(s.Data)
	}

	// Section headers.
	pad := int(shOff) - out.Len()
	if pad < 0 {
		return nil, fmt.Errorf("elf64: shdr layout error")
	}
	out.Write(make([]byte, pad))
	for i, s := range secs {
		sh := make([]byte, 64)
		le.PutUint32(sh, nameOffs[i])
		le.PutUint32(sh[4:], s.Type)
		le.PutUint64(sh[8:], s.Flags)
		le.PutUint64(sh[16:], s.Addr)
		le.PutUint64(sh[24:], offs[i])
		le.PutUint64(sh[32:], s.Size)
		le.PutUint32(sh[40:], s.Link)
		le.PutUint32(sh[44:], s.Info)
		le.PutUint64(sh[48:], s.AddrAlign)
		le.PutUint64(sh[56:], s.EntSize)
		out.Write(sh)
	}
	return out.Bytes(), nil
}
