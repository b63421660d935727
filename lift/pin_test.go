package lift_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/lift"
)

// TestLiftedGraphsPinned pins what Step 1 produces on three corpora, each
// lifted with and without pointer facts: one SHA-256 per corpus and
// configuration over every function's name, status and step count and its
// graph's hoare.Marshal text, in request and function order. A change
// meant to keep every lift byte for byte (a performance change) keeps
// these digests; a change that alters a lift on purpose updates them and
// says why. Every text must also load back (hoare.Load) into a graph that
// marshals to the same bytes, and every graph must be whole: loaded back
// from its .hg text and from the binary container, it lints exactly as
// the lifted graph does, and each separation hypothesis it lists is made
// at one of its own instructions.
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
// text to h, checks that the text loads back against img into a graph
// with the same text, that the graph loaded from either file format lints
// as the lifted one does, and that each separation hypothesis the graph
// lists sits at one of its instructions. It returns 1 when the function
// has a graph.
func digestFunc(t *testing.T, h hash.Hash, img *image.Image, f *core.FuncResult) int {
	t.Helper()
	fmt.Fprintf(h, "func %s %s %d\n", f.Name, f.Status, f.Steps)
	if f.Graph == nil {
		return 0
	}
	text := hoare.Marshal(f.Graph)
	h.Write(text)
	if g, err := hoare.Load(img, text); err != nil {
		t.Errorf("%s: %v", f.Name, err)
	} else if !bytes.Equal(hoare.Marshal(g), text) {
		t.Errorf("%s: the loaded graph marshals to other text", f.Name)
	}
	lint := hglint.Lint(f.Graph).JSON()
	for form, b := range map[string][]byte{".hg": text, "binary": hgstore.MarshalGraph(f.Graph)} {
		if g, err := hgstore.LoadGraph(img, b); err != nil {
			t.Errorf("%s: %s: %v", f.Name, form, err)
		} else if got := hglint.Lint(g).JSON(); !bytes.Equal(got, lint) {
			t.Errorf("%s: loaded from %s it lints\n%s\nlifted it lints\n%s", f.Name, form, got, lint)
		}
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
