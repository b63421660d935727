package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestCorpusBytesPinned pins the bytes of every generated corpus: one
// SHA-256 per suite over each unit's name and raw ELF. The generators feed
// Table 1 and 2, the case studies and every benchmark workload, so a change
// to cgen, the assembler or the x86 encoder that moves a single byte fails
// here, and must update the digest on purpose.
func TestCorpusBytesPinned(t *testing.T) {
	type unit struct {
		name string
		raw  []byte
	}
	digest := func(units []unit) string {
		h := sha256.New()
		var n [8]byte
		for _, u := range units {
			h.Write([]byte(u.name))
			binary.LittleEndian.PutUint64(n[:], uint64(len(u.raw)))
			h.Write(n[:])
			h.Write(u.raw)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	dirUnits := func(dirs ...*Directory) []unit {
		var out []unit
		for _, d := range dirs {
			for _, u := range d.Units {
				out = append(out, unit{u.Name, u.Image.Raw()})
			}
		}
		return out
	}
	table1 := func(seed int64) []unit {
		var dirs []*Directory
		for _, shape := range XenSuite(0.05) {
			d, err := BuildDirectory(shape, seed)
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, d)
		}
		return dirUnits(dirs...)
	}
	scenarios := func(ss ...*Scenario) []unit {
		var out []unit
		for _, s := range ss {
			out = append(out, unit{s.Name, s.Raw})
		}
		return out
	}

	core, err := CoreUtilsSuite(1.0)
	if err != nil {
		t.Fatal(err)
	}
	var coreUnits []unit
	for _, u := range core {
		coreUnits = append(coreUnits, unit{u.Name, u.Image.Raw()})
	}
	ptr, err := PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	weird, err := WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	all, err := AllScenarios()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		suite string
		units []unit
		want  string
	}{
		{"Table 1 (XenSuite 0.05, seed 1)", table1(1),
			"ce60bfbc319f9cfce9d8de7e4003ec0d1486c8a7bbab338875bdb478e47b2569"},
		{"Table 1 (XenSuite 0.05, seed 2)", table1(2),
			"876cbf03cd2dd858aa861220fdc70660d3609d1dbe0ffec2206df1c133b80ecc"},
		{"CoreUtilsSuite(1.0)", coreUnits,
			"7e869adee8d015b6d5add73731faec673909be084d13611f4f3ca9cd76302438"},
		{"PtrPathology", dirUnits(ptr),
			"2bd7bef1819b117a1eab7059c64b38cda1cd8cd01ba767beb20863934754d0f5"},
		{"WeirdEdge", scenarios(weird),
			"6698b19a27d61f59b7d98b8d14e7c896c65348f8dc63d92a65c1f9f4e888c35d"},
		{"AllScenarios", scenarios(all...),
			"8cb43f781dda5511ca9499a71bd8b9feb124e668fe061fed6ace591e96f6550f"},
	} {
		if len(c.units) == 0 {
			t.Errorf("%s: no units", c.suite)
		}
		if got := digest(c.units); got != c.want {
			t.Errorf("%s: %d units digest %s, want %s", c.suite, len(c.units), got, c.want)
		}
	}
}
