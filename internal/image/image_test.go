package image

import (
	"errors"
	"testing"

	"repro/internal/elf64"
	"repro/internal/x86"
)

func sampleImage(t *testing.T) *Image {
	t.Helper()
	b := elf64.NewExec(0x401000)
	// text: push rbp; ret
	b.AddSection(".text", elf64.SHFExecinstr, 0x401000, []byte{0x55, 0xc3})
	b.AddSection(".plt", elf64.SHFExecinstr, 0x400800, []byte{0xff, 0x25, 0, 0, 0x10, 0, 0x90, 0x90})
	b.AddSection(".rodata", 0, 0x4a0000, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.AddSection(".data", elf64.SHFWrite, 0x4b0000, []byte{9, 9, 9, 9})
	b.AddFunc("main", 0x401000, 2)
	b.AddFunc("memset@plt", 0x400800, 8)
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	im, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestTextRangeAndInText(t *testing.T) {
	im := sampleImage(t)
	lo, hi := im.TextRange()
	if lo != 0x400800 || hi != 0x401002 {
		t.Fatalf("text range: %#x..%#x", lo, hi)
	}
	if !im.InText(0x401001) || im.InText(0x4a0000) || im.InText(0) {
		t.Fatal("InText")
	}
	if im.Entry() != 0x401000 {
		t.Fatalf("entry: %#x", im.Entry())
	}
}

func TestReadOnlyQueries(t *testing.T) {
	im := sampleImage(t)
	if !im.IsReadOnly(0x4a0000, 8) {
		t.Fatal("rodata must be read-only")
	}
	if im.IsReadOnly(0x4a0001, 8) {
		t.Fatal("overhanging range must not be read-only")
	}
	if im.IsReadOnly(0x4b0000, 4) {
		t.Fatal(".data is writable")
	}
	v, ok := im.ReadRO(0x4a0000, 4)
	if !ok || v != 0x04030201 {
		t.Fatalf("ReadRO: %#x %v", v, ok)
	}
	if _, ok := im.ReadRO(0x4b0000, 4); ok {
		t.Fatal("ReadRO from .data must fail")
	}
	// Text is also mapped read-only (constants can be read from it).
	if !im.IsMapped(0x4b0000) || im.IsMapped(0x700000) {
		t.Fatal("IsMapped")
	}
}

func TestPLTAndSymbols(t *testing.T) {
	im := sampleImage(t)
	name, ok := im.PLTName(0x400800)
	if !ok || name != "memset" {
		t.Fatalf("plt: %q %v", name, ok)
	}
	if _, ok := im.PLTName(0x401000); ok {
		t.Fatal("main is not a stub")
	}
	funcs := im.FuncSymbols()
	if len(funcs) != 1 || funcs[0].Name != "main" {
		t.Fatalf("func symbols must exclude PLT stubs: %+v", funcs)
	}
	if n, ok := im.SymbolName(0x401000); !ok || n != "main" {
		t.Fatalf("symbol name: %q %v", n, ok)
	}
	if _, ok := im.SymbolName(0xdead); ok {
		t.Fatal("bogus symbol lookup")
	}
}

// TestResolveFunc covers the one function-spec resolver the commands
// share: addresses with and without a symbol, symbol names, and unknown
// names, whose error names no command (the caller adds its own prefix).
func TestResolveFunc(t *testing.T) {
	im := sampleImage(t)
	for _, tc := range []struct {
		spec     string
		addr     uint64
		name     string
		errMatch string
	}{
		{spec: "0x401000", addr: 0x401000, name: "main"},
		{spec: "0x401001", addr: 0x401001, name: "sub_401001"},
		{spec: "4198400", addr: 0x401000, name: "main"},
		{spec: "main", addr: 0x401000, name: "main"},
		{spec: "memset@plt", errMatch: `no function "memset@plt" (have 1 symbols)`},
		{spec: "nosuch", errMatch: `no function "nosuch" (have 1 symbols)`},
	} {
		addr, name, err := im.ResolveFunc(tc.spec)
		if tc.errMatch != "" {
			if err == nil || err.Error() != tc.errMatch {
				t.Errorf("%s: error %v, want %q", tc.spec, err, tc.errMatch)
			}
			continue
		}
		if err != nil || addr != tc.addr || name != tc.name {
			t.Errorf("%s: got (%#x, %q, %v), want (%#x, %q)", tc.spec, addr, name, err, tc.addr, tc.name)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("junk")); err == nil {
		t.Fatal("junk must fail")
	}
	// The elf64 sentinels survive the image wrapping.
	if _, err := Load(make([]byte, 100)); !errors.Is(err, elf64.ErrBadMagic) {
		t.Errorf("bad magic through Load: want elf64.ErrBadMagic, got %v", err)
	}
	if _, err := Load(nil); !errors.Is(err, elf64.ErrTruncated) {
		t.Errorf("empty image through Load: want elf64.ErrTruncated, got %v", err)
	}
}

func TestFetchNotExecutable(t *testing.T) {
	im := sampleImage(t)
	for _, addr := range []uint64{0x4a0000 /* .rodata */, 0x4b0000 /* .data */, 0xdead0000 /* unmapped */} {
		_, err := im.Fetch(addr)
		if !errors.Is(err, ErrNotExecutable) {
			t.Errorf("Fetch(%#x): want ErrNotExecutable, got %v", addr, err)
		}
	}
	if inst, err := im.Fetch(0x401000); err != nil || inst.Mn != x86.PUSH {
		t.Errorf("Fetch in .text: %v %v, want push", inst, err)
	}
}
