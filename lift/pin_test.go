package lift_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/triple"
	"repro/lift"
)

// TestLiftedGraphsPinned pins what Step 1 produces on three corpora, each
// lifted with and without pointer facts: one SHA-256 per corpus and
// configuration over every function's name, status and step count and its
// graph's hoare.Marshal text, in request and function order. A change
// meant to keep every lift byte for byte (a performance change) keeps
// these digests; a change that alters a lift on purpose updates them and
// says why. Every graph must also be whole: saved as a graph file and
// loaded back, it must be the lifted graph (see digestFunc), and each
// separation hypothesis it lists is made at one of its own instructions.
func TestLiftedGraphsPinned(t *testing.T) {
	coreutils, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	ptrDir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	var table1 []*corpus.Unit
	for _, shape := range corpus.XenSuite(0.02) {
		dir, err := corpus.BuildDirectory(shape, 1)
		if err != nil {
			t.Fatal(err)
		}
		table1 = append(table1, dir.Units...)
	}
	for _, c := range []struct {
		name  string
		units []*corpus.Unit
		facts bool
		want  string
	}{
		{"CoreUtilsSuite(0.17)", coreutils, false,
			"86d308675d5500a55a899888399a58e0da2b573aada4a31431db4c77222b5646"},
		{"CoreUtilsSuite(0.17)", coreutils, true,
			"86d308675d5500a55a899888399a58e0da2b573aada4a31431db4c77222b5646"},
		{"ptr_", ptrDir.Units, false,
			"800ef9a463d057445a7010cd8ea9ebfcc039d681d646465f24e520da87d1650d"},
		{"ptr_", ptrDir.Units, true,
			"1d03ef9281a6c62e6a8aca5a55c3ca6a0132d14785195e2bbfbb41452ef17d52"},
		{"XenSuite(0.02) seed 1", table1, false,
			"a459e89d1e1b4890383ee96ea11d5b7d840c23756314853af01eb994f3efa184"},
		{"XenSuite(0.02) seed 1", table1, true,
			"a459e89d1e1b4890383ee96ea11d5b7d840c23756314853af01eb994f3efa184"},
	} {
		opts := []lift.Option{lift.Jobs(2)}
		if c.facts {
			opts = append(opts, lift.PointerFacts())
		}
		sum := lift.Run(context.Background(), lift.UnitRequests(c.units), opts...)
		h := sha256.New()
		n := 0
		for i, r := range sum.Results {
			fmt.Fprintf(h, "task %s %s\n", r.Name, r.Status)
			img := c.units[i].Image
			if r.Func != nil {
				n += digestFunc(t, h, img, r.Func)
			}
			if r.Binary != nil {
				for _, f := range r.Binary.Funcs {
					n += digestFunc(t, h, img, f)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s, facts=%v: %d graphs digest to %s, want %s", c.name, c.facts, n, got, c.want)
		}
	}
}

// digestFunc writes one function's name, status, step count and graph
// text to h, and checks that the graph loaded back from its graph file
// against img is the lifted graph: the same .hg text, instruction
// addresses, Stats (but Joins, which counts the exploration's weakenings
// and is not saved), disassembly, theory export and lint report. It also
// checks that each separation hypothesis the graph lists sits at one of
// its instructions. It returns 1 when the function has a graph.
func digestFunc(t *testing.T, h hash.Hash, img *image.Image, f *core.FuncResult) int {
	t.Helper()
	fmt.Fprintf(h, "func %s %s %d\n", f.Name, f.Status, f.Steps)
	if f.Graph == nil {
		return 0
	}
	text := hoare.Marshal(f.Graph)
	h.Write(text)
	if g, err := hgstore.LoadGraph(img, hgstore.MarshalGraph(f.Graph)); err != nil {
		t.Errorf("%s: %v", f.Name, err)
	} else {
		sameLoaded(t, f.Name, f.Graph, g)
	}
	for _, a := range f.Graph.Assumptions {
		if !strings.Contains(a, " ASSUMED SEPARATE FROM ") {
			continue
		}
		at, _, _ := strings.Cut(strings.TrimPrefix(a, "@"), " ")
		addr, err := strconv.ParseUint(at, 16, 64)
		if _, ok := f.Graph.Instrs[addr]; err != nil || !ok {
			t.Errorf("%s lists a hypothesis at no instruction of its own: %s", f.Name, a)
		}
	}
	return 1
}

// sameLoaded reports where a graph loaded from its graph file differs from
// the lifted graph it was saved from.
func sameLoaded(t *testing.T, name string, lifted, g *hoare.Graph) {
	t.Helper()
	if !bytes.Equal(hoare.Marshal(g), hoare.Marshal(lifted)) {
		t.Errorf("%s: the loaded graph marshals to other text", name)
	}
	for a := range lifted.Instrs {
		if _, ok := g.Instrs[a]; !ok {
			t.Errorf("%s: the loaded graph lacks the instruction at %#x", name, a)
		}
	}
	if len(g.Instrs) != len(lifted.Instrs) {
		t.Errorf("%s: loaded with %d instructions, lifted with %d", name, len(g.Instrs), len(lifted.Instrs))
	}
	want := lifted.Stats()
	want.Joins = 0
	if got := g.Stats(); got != want {
		t.Errorf("%s: loaded stats %+v, lifted %+v", name, got, want)
	}
	if got, want := g.Disasm(), lifted.Disasm(); !slices.Equal(got, want) {
		t.Errorf("%s: loaded disassembly\n%s\nlifted\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got, want := triple.ExportTheory(g, name), triple.ExportTheory(lifted, name); got != want {
		t.Errorf("%s: the loaded graph's theory export differs from the lifted one's", name)
	}
	if got, want := hglint.Lint(g).JSON(), hglint.Lint(lifted).JSON(); !bytes.Equal(got, want) {
		t.Errorf("%s: loaded it lints\n%s\nlifted it lints\n%s", name, got, want)
	}
}
