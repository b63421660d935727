package elf64

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// buildSample writes a small executable with .text/.rodata/.data and two
// function symbols, then parses it back.
func buildSample(t *testing.T) *File {
	t.Helper()
	b := NewExec(0x401000)
	text := []byte{0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3, 0x90, 0x90}
	rodata := []byte{0x10, 0x10, 0x40, 0, 0, 0, 0, 0}
	data := []byte{1, 2, 3, 4}
	b.AddSection(".text", SHFExecinstr, 0x401000, text)
	b.AddSection(".rodata", 0, 0x4a0000, rodata)
	b.AddSection(".data", SHFWrite, 0x4b0000, data)
	b.AddFunc("main", 0x401000, 6)
	b.AddFunc("helper", 0x401006, 2)
	b.AddObject("table", 0x4a0000, 8)
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := buildSample(t)
	if f.Header.Entry != 0x401000 {
		t.Fatalf("entry %#x", f.Header.Entry)
	}
	if f.Header.Type != ETExec {
		t.Fatalf("type %d", f.Header.Type)
	}
	text := f.Section(".text")
	if text == nil || text.Addr != 0x401000 || len(text.Data) != 8 {
		t.Fatalf("text: %+v", text)
	}
	if text.Flags&SHFExecinstr == 0 {
		t.Fatal("text must be executable")
	}
	if data := f.Section(".data"); data == nil || data.Flags&SHFWrite == 0 {
		t.Fatal("data must be writable")
	}
	if f.Section(".nope") != nil {
		t.Fatal("missing section must be nil")
	}
}

func TestSymbols(t *testing.T) {
	f := buildSample(t)
	funcs := f.FuncSymbols()
	if len(funcs) != 2 {
		t.Fatalf("func symbols: %+v", funcs)
	}
	byName := map[string]Symbol{}
	for _, s := range funcs {
		byName[s.Name] = s
	}
	if byName["main"].Value != 0x401000 || byName["main"].Size != 6 {
		t.Fatalf("main: %+v", byName["main"])
	}
	if s, ok := f.SymbolAt(0x401006); !ok || s.Name != "helper" {
		t.Fatalf("symbol at: %+v %v", s, ok)
	}
	if _, ok := f.SymbolAt(0xdead); ok {
		t.Fatal("bogus address must have no symbol")
	}
	// The object symbol is not a function symbol.
	for _, s := range funcs {
		if s.Name == "table" {
			t.Fatal("object symbol leaked into FuncSymbols")
		}
	}
}

func TestSectionAtAndReadAt(t *testing.T) {
	f := buildSample(t)
	if s := f.SectionAt(0x401003); s == nil || s.Name != ".text" {
		t.Fatalf("section at text addr: %v", s)
	}
	if s := f.SectionAt(0x500000); s != nil {
		t.Fatalf("unmapped addr: %v", s)
	}
	b, ok := f.ReadAt(0x4a0000, 8)
	if !ok || le.Uint64(b) != 0x401010 {
		t.Fatalf("rodata read: % x %v", b, ok)
	}
	if _, ok := f.ReadAt(0x4a0006, 8); ok {
		t.Fatal("cross-boundary read must fail")
	}
	if _, ok := f.ReadAt(0x999999, 1); ok {
		t.Fatal("unmapped read must fail")
	}
}

func TestProgHeaders(t *testing.T) {
	f := buildSample(t)
	if len(f.Progs) != 3 {
		t.Fatalf("want 3 PT_LOAD, got %d", len(f.Progs))
	}
	for _, p := range f.Progs {
		if p.Type != PTLoad {
			t.Fatalf("segment type %d", p.Type)
		}
		// File offset congruent to vaddr modulo page size (mmap-ability).
		if p.Off%pageSize != p.VAddr%pageSize {
			t.Fatalf("segment misaligned: off=%#x vaddr=%#x", p.Off, p.VAddr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Fatal("empty image must fail")
	}
	if _, err := Parse(make([]byte, 100)); err == nil {
		t.Fatal("bad magic must fail")
	}
	img := make([]byte, 100)
	copy(img, []byte{0x7f, 'E', 'L', 'F', 1 /* 32-bit */, 1, 1})
	if _, err := Parse(img); err == nil {
		t.Fatal("ELFCLASS32 must fail")
	}
	copy(img, []byte{0x7f, 'E', 'L', 'F', ELFCLASS64, 2 /* big endian */, 1})
	if _, err := Parse(img); err == nil {
		t.Fatal("big-endian must fail")
	}
	// Valid prefix but wrong machine.
	copy(img, []byte{0x7f, 'E', 'L', 'F', ELFCLASS64, ELFDATA2LSB, 1})
	le.PutUint16(img[18:], 0x28) // ARM
	if _, err := Parse(img); err == nil {
		t.Fatal("ARM machine must fail")
	}
	var pe *ParseError
	_, err := Parse(nil)
	if e, ok := err.(*ParseError); ok {
		pe = e
	}
	if pe == nil || pe.Error() == "" {
		t.Fatal("error type")
	}
}

func TestParseErrorSentinels(t *testing.T) {
	// Format-class failures wrap ErrBadMagic.
	for name, img := range map[string][]byte{
		"bad magic": make([]byte, 100),
		"elfclass32": append([]byte{0x7f, 'E', 'L', 'F', 1, 1, 1},
			make([]byte, 93)...),
		"big endian": append([]byte{0x7f, 'E', 'L', 'F', ELFCLASS64, 2, 1},
			make([]byte, 93)...),
	} {
		_, err := Parse(img)
		if !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: want errors.Is(err, ErrBadMagic), got %v", name, err)
		}
		if errors.Is(err, ErrTruncated) {
			t.Errorf("%s: must not match ErrTruncated", name)
		}
	}
	// Truncation-class failures wrap ErrTruncated.
	_, err := Parse(nil)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("empty image: want ErrTruncated, got %v", err)
	}
	short := make([]byte, 100)
	copy(short, []byte{0x7f, 'E', 'L', 'F', ELFCLASS64, ELFDATA2LSB, 1})
	le.PutUint16(short[18:], EMX8664)
	le.PutUint64(short[32:], 1<<40) // PhOff far past the image
	le.PutUint16(short[54:], 56)
	le.PutUint16(short[56:], 1)
	_, err = Parse(short)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("out-of-range program header: want ErrTruncated, got %v", err)
	}
	// Both sentinels still surface the concrete type for errors.As.
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Err == nil {
		t.Errorf("want *ParseError wrapping a sentinel, got %v", err)
	}
}

// TestParseUndersizedEntries: a header table whose entries are smaller
// than an ELF64 entry is a format error. With entry size 0, 2¹⁶ entries
// would all read the same header, copying its section 2¹⁶ times.
func TestParseUndersizedEntries(t *testing.T) {
	b := NewExec(0x401000)
	b.AddSection(".text", SHFExecinstr, 0x401000, []byte{0xc3})
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for name, field := range map[string]int{"program": 54, "section": 58} {
		bad := append([]byte(nil), img...)
		le.PutUint16(bad[field:], 0)
		le.PutUint16(bad[field+2:], 0xffff)
		if _, err := Parse(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s header entry size 0: want ErrBadMagic, got %v", name, err)
		}
	}
}

func TestOverlapRejected(t *testing.T) {
	b := NewExec(0x1000)
	b.AddSection(".a", 0, 0x1000, make([]byte, 0x100))
	b.AddSection(".b", 0, 0x1080, make([]byte, 0x100))
	if _, err := b.Bytes(); err == nil {
		t.Fatal("overlapping sections must be rejected")
	}
}

func TestSharedObject(t *testing.T) {
	b := NewShared()
	b.AddSection(".text", SHFExecinstr, 0x1000, bytes.Repeat([]byte{0x90}, 16))
	b.AddFunc("exported_fn", 0x1000, 16)
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.Header.Type != ETDyn {
		t.Fatalf("type %d", f.Header.Type)
	}
	if n := len(f.FuncSymbols()); n != 1 {
		t.Fatalf("exported functions: %d", n)
	}
}

// TestQuickWriterReaderRoundTrip fuzzes section layouts through the writer
// and reader.
func TestQuickWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		b := NewExec(0x401000)
		type secSpec struct {
			name string
			addr uint64
			data []byte
		}
		var specs []secSpec
		addr := uint64(0x401000)
		nSecs := 1 + rng.Intn(4)
		for i := 0; i < nSecs; i++ {
			n := 1 + rng.Intn(300)
			data := make([]byte, n)
			rng.Read(data)
			name := fmt.Sprintf(".s%d", i)
			flags := uint64(0)
			if i == 0 {
				flags = SHFExecinstr
			}
			if rng.Intn(2) == 0 {
				flags |= SHFWrite
			}
			b.AddSection(name, flags, addr, data)
			specs = append(specs, secSpec{name, addr, data})
			addr += uint64(n) + uint64(rng.Intn(0x2000))
		}
		nSyms := rng.Intn(5)
		for i := 0; i < nSyms; i++ {
			b.AddFunc(fmt.Sprintf("fn%d", i), specs[0].addr+uint64(i), 1)
		}
		img, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(img)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, sp := range specs {
			s := f.Section(sp.name)
			if s == nil {
				t.Fatalf("trial %d: section %s lost", trial, sp.name)
			}
			if s.Addr != sp.addr || len(s.Data) != len(sp.data) {
				t.Fatalf("trial %d: section %s shape", trial, sp.name)
			}
			for j := range sp.data {
				if s.Data[j] != sp.data[j] {
					t.Fatalf("trial %d: section %s data at %d", trial, sp.name, j)
				}
			}
		}
		if got := len(f.FuncSymbols()); got != nSyms {
			t.Fatalf("trial %d: symbols %d != %d", trial, got, nSyms)
		}
	}
}

// spanningELF returns a size-byte x86-64 executable header followed by
// padding and a table of headers section headers at the end of the file,
// every one a PROGBITS section at offset 0 that spans the whole file.
func spanningELF(headers, size int) []byte {
	b := make([]byte, size)
	copy(b, "\x7fELF\x02\x01\x01")
	shoff := size - headers*64
	le.PutUint16(b[16:], ETExec)
	le.PutUint16(b[18:], EMX8664)
	le.PutUint32(b[20:], EVCurrent)
	le.PutUint64(b[40:], uint64(shoff))
	le.PutUint16(b[52:], 64) // e_ehsize
	le.PutUint16(b[58:], 64) // e_shentsize
	le.PutUint16(b[60:], uint16(headers))
	for i := 0; i < headers; i++ {
		sh := b[shoff+64*i:]
		le.PutUint32(sh[4:], SHTProgbits)
		le.PutUint64(sh[32:], uint64(size))
	}
	return b
}

// TestSpanningSectionsShareOneCopy: a section table whose sections all
// span the file once made Parse copy the file per header (164 MB for this
// 164,064-byte file). Parse copies each byte the sections cover once and
// slices each section's data out of that copy, so the whole parse
// allocates at most twice the file's size. The slices are capped:
// appending to one cannot write into the next. Sections whose ranges
// overlap in other ways, out of file order, read their own bytes.
func TestSpanningSectionsShareOneCopy(t *testing.T) {
	b := spanningELF(1000, 164064)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := Parse(b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(b)) {
		t.Errorf("parsing a %d-byte file allocated %d bytes, want at most %d", len(b), n, 2*len(b))
	}
	if len(f.Sections) != 1000 {
		t.Fatalf("%d sections, want 1000", len(f.Sections))
	}
	for i, s := range f.Sections {
		if !bytes.Equal(s.Data, b) || cap(s.Data) != len(b) {
			t.Fatalf("section %d: %d bytes (cap %d), want the file's %d", i, len(s.Data), cap(s.Data), len(b))
		}
	}
	b[0] = 0 // the parse holds a copy of its input
	if f.Sections[0].Data[0] != 0x7f {
		t.Fatal("section data aliases the caller's buffer")
	}

	b = spanningELF(1000, 164064)
	shoff := len(b) - 1000*64
	for i := 64; i < shoff; i++ {
		b[i] = byte(i*31 + i>>8)
	}
	for i := 0; i < 1000; i++ {
		off := uint64(i*7919) % uint64(shoff)
		le.PutUint64(b[shoff+64*i+24:], off)
		le.PutUint64(b[shoff+64*i+32:], 1+uint64(i*104729)%(uint64(len(b))-off))
	}
	if f, err = Parse(b); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sections {
		if end := s.Off + s.Size; !bytes.Equal(s.Data, b[s.Off:end]) || uint64(cap(s.Data)) != s.Size {
			t.Fatalf("section %d [%#x, %#x): wrong bytes or cap %d", i, s.Off, end, cap(s.Data))
		}
	}
}

// sectionNamesELF returns an x86-64 executable whose section 0 is a
// string table holding one NUL-free run of run bytes, followed by a table
// of headers section headers whose names start at the first headers
// offsets of that run, spread by stride: every name runs to the end of the
// table.
func sectionNamesELF(headers, run, stride int) []byte {
	size := 64 + run + 64*headers
	b := make([]byte, size)
	copy(b, "\x7fELF\x02\x01\x01")
	le.PutUint16(b[16:], ETExec)
	le.PutUint16(b[18:], EMX8664)
	le.PutUint32(b[20:], EVCurrent)
	le.PutUint64(b[40:], uint64(64+run)) // e_shoff
	le.PutUint16(b[52:], 64)             // e_ehsize
	le.PutUint16(b[58:], 64)             // e_shentsize
	le.PutUint16(b[60:], uint16(headers))
	for i := 64; i < 64+run; i++ {
		b[i] = 'a' + byte(i%26)
	}
	for i := 0; i < headers; i++ {
		sh := b[64+run+64*i:]
		le.PutUint32(sh, uint32((i*stride)%run))
	}
	sh := b[64+run:] // section 0, the names' table (e_shstrndx 0)
	le.PutUint32(sh[4:], SHTStrtab)
	le.PutUint64(sh[24:], 64)
	le.PutUint64(sh[32:], uint64(run))
	return b
}

// symbolNamesELF returns an x86-64 executable with a symbol table of
// symbols entries that all name one NUL-free run of run bytes: the whole
// string table.
func symbolNamesELF(symbols, run int) []byte {
	shstr := "\x00.symtab\x00.strtab\x00.shstrtab\x00"
	symOff := 64 + run
	shstrOff := symOff + 24*symbols
	shOff := shstrOff + len(shstr)
	b := make([]byte, shOff+4*64)
	copy(b, "\x7fELF\x02\x01\x01")
	le.PutUint16(b[16:], ETExec)
	le.PutUint16(b[18:], EMX8664)
	le.PutUint32(b[20:], EVCurrent)
	le.PutUint64(b[40:], uint64(shOff))
	le.PutUint16(b[52:], 64)
	le.PutUint16(b[58:], 64)
	le.PutUint16(b[60:], 4)
	le.PutUint16(b[62:], 3) // e_shstrndx
	for i := 64; i < symOff; i++ {
		b[i] = 'a' + byte(i%26)
	}
	copy(b[shstrOff:], shstr)
	for i, s := range []struct {
		name, typ, link uint32
		off, size       int
	}{
		{},
		{1, SHTSymtab, 2, symOff, 24 * symbols},
		{9, SHTStrtab, 0, 64, run},
		{17, SHTStrtab, 0, shstrOff, len(shstr)},
	} {
		sh := b[shOff+64*i:]
		le.PutUint32(sh, s.name)
		le.PutUint32(sh[4:], s.typ)
		le.PutUint64(sh[24:], uint64(s.off))
		le.PutUint64(sh[32:], uint64(s.size))
		le.PutUint32(sh[40:], s.link)
	}
	return b
}

// parseAllocs parses b and returns the file and the bytes the parse
// allocated.
func parseAllocs(t *testing.T, b []byte) (*File, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := Parse(b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return f, after.TotalAlloc - before.TotalAlloc
}

// TestHostileNamesShareOneCopy: names that all start in one long NUL-free
// run of a string table once cost a scan and a copy of up to the run's
// length each (about 107 MB for each of these files). Parse copies and
// scans the run once, and every name is a substring of that copy, so each
// file parses in at most twice its size.
func TestHostileNamesShareOneCopy(t *testing.T) {
	b := sectionNamesELF(1000, 100000, 1)
	f, n := parseAllocs(t, b)
	if n > 2*uint64(len(b)) {
		t.Errorf("section names: parsing a %d-byte file allocated %d bytes, want at most %d", len(b), n, 2*len(b))
	}
	t.Logf("section names: %d-byte file, %d bytes allocated", len(b), n)
	for i, s := range f.Sections {
		if want := string(b[64+i : 64+100000]); s.Name != want {
			t.Fatalf("section %d: name of %d bytes, want %d", i, len(s.Name), len(want))
		}
	}

	b = symbolNamesELF(1002, 100000)
	f, n = parseAllocs(t, b)
	if n > 2*uint64(len(b)) {
		t.Errorf("symbol names: parsing a %d-byte file allocated %d bytes, want at most %d", len(b), n, 2*len(b))
	}
	t.Logf("symbol names: %d-byte file, %d bytes allocated", len(b), n)
	if len(f.Symbols) != 1002 || f.Section(".symtab") == nil || f.Section(".shstrtab") == nil {
		t.Fatalf("%d symbols; sections %+v", len(f.Symbols), f.Sections)
	}
	for i, s := range f.Symbols {
		if s.Name != string(b[64:64+100000]) {
			t.Fatalf("symbol %d: name of %d bytes", i, len(s.Name))
		}
	}
}

// TestManySectionNamesParseFast: 65,535 section headers whose names point
// into a 1 MB NUL-free run once scanned (and copied) about 65,535 MB; each
// byte is now scanned once, and the parse takes milliseconds.
func TestManySectionNamesParseFast(t *testing.T) {
	const run = 1 << 20
	b := sectionNamesELF(65535, run, 16)
	start := time.Now()
	f, n := parseAllocs(t, b)
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Errorf("parsing %d section names took %v", len(f.Sections), elapsed)
	}
	if s := f.Sections[65534]; len(s.Name) != run-(65534*16)%run {
		t.Fatalf("last section: name of %d bytes", len(s.Name))
	}
	t.Logf("%d section names, %d-byte file: %v, %d bytes allocated", len(f.Sections), len(b), elapsed, n)
}

// cstr is the name reader Parse used before names: a scan and a copy per
// name. It is the reference for names.
func cstr(tab []byte, off uint32) string {
	if int(off) >= len(tab) {
		return ""
	}
	end := int(off)
	for end < len(tab) && tab[end] != 0 {
		end++
	}
	return string(tab[off:end])
}

// TestNamesMatchesCstr: on random tables (NULs sparse or dense, a last
// name with or without its NUL) and random offsets (repeated, unsorted,
// on a NUL, past the end), names reads what cstr reads.
func TestNamesMatchesCstr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		tab := make([]byte, rng.Intn(64))
		for i := range tab {
			if rng.Intn(1+trial%8) != 0 {
				tab[i] = 'a' + byte(rng.Intn(26))
			}
		}
		offs := make([]uint32, rng.Intn(16))
		for i := range offs {
			offs[i] = uint32(rng.Intn(len(tab) + 4))
		}
		got := make([]string, len(offs))
		names(tab, offs, func(i int, s string) { got[i] = s })
		for i, off := range offs {
			if want := cstr(tab, off); got[i] != want {
				t.Fatalf("trial %d: name at %d of %q is %q, want %q", trial, off, tab, got[i], want)
			}
		}
	}
}
