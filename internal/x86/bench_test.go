package x86_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/elf64"
	"repro/internal/x86"
)

// coreUtilsInstrs returns every instruction of CoreUtilsSuite(0.17), found
// by a linear sweep of each binary's executable sections: its bytes and its
// decoding.
func coreUtilsInstrs(b *testing.B) ([][]byte, []x86.Inst) {
	units, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		b.Fatal(err)
	}
	var code [][]byte
	var insts []x86.Inst
	for _, u := range units {
		for _, s := range u.Image.File().Sections {
			if s.Flags&elf64.SHFExecinstr == 0 {
				continue
			}
			for off := 0; off < len(s.Data); {
				inst, err := x86.Decode(s.Data[off:], s.Addr+uint64(off))
				if err != nil {
					b.Fatalf("%s: %v", u.Name, err)
				}
				code = append(code, s.Data[off:off+inst.Len])
				insts = append(insts, inst)
				off += inst.Len
			}
		}
	}
	return code, insts
}

// BenchmarkDecode decodes one instruction per op.
func BenchmarkDecode(b *testing.B) {
	code, insts := coreUtilsInstrs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(code)
		if _, err := x86.Decode(code[k], insts[k].Addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode encodes one instruction per op.
func BenchmarkEncode(b *testing.B) {
	_, insts := coreUtilsInstrs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x86.Encode(insts[i%len(insts)]); err != nil {
			b.Fatal(err)
		}
	}
}
