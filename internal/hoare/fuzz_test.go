package hoare_test

// Fuzz target for the serial form of a graph: the expression table
// followed by the binary graph record (wire.go), without the checksummed
// container of internal/hgstore, so mutated bytes reach the decoder
// instead of stopping at a checksum. Seeded with the record of every
// lifted corpus scenario, each decoded against its own image. For any
// input that decodes, the record must round-trip byte-identically
// (encode ∘ decode is idempotent) and the hglint analyzer must be a
// deterministic, panic-free function of the decoded graph. Seed inputs
// additionally must lint clean: a graph the lifter produced and the
// record round-tripped carries no well-formedness errors.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hglint"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/wire"
)

// encodeRecord writes a graph's expression table and graph record.
func encodeRecord(g *hoare.Graph) []byte {
	t := expr.NewTable()
	hoare.CollectWireExprs(t, g)
	return hoare.AppendWire(expr.AppendTable(nil, t), t, g)
}

// decodeRecord reads what encodeRecord writes, rejecting trailing bytes.
func decodeRecord(img *image.Image, data []byte) (*hoare.Graph, error) {
	d := wire.NewDecoder(data)
	nodes, err := expr.DecodeTable(d)
	if err != nil {
		return nil, err
	}
	g, err := hoare.DecodeWire(d, nodes, img)
	if err != nil {
		return nil, err
	}
	if n := len(d.Rest()); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes after graph record", n)
	}
	return g, nil
}

func FuzzSerialRoundTripLintClean(f *testing.F) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		f.Fatal(err)
	}
	// seeds maps a seed record to the scenario (by index) that lifted it.
	seeds := map[string]uint8{}
	for i, s := range scenarios {
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		if fr.Status != core.StatusLifted || fr.Graph == nil {
			continue
		}
		data := encodeRecord(fr.Graph)
		seeds[string(data)] = uint8(i)
		f.Add(uint8(i), data)
	}
	if len(seeds) == 0 {
		f.Fatal("no scenario lifted — no seeds")
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		// The record carries addresses; instructions are re-fetched from
		// the image of the scenario the input names.
		img := scenarios[int(which)%len(scenarios)].Image
		g, err := decodeRecord(img, data)
		if err != nil {
			return // rejected inputs are fine; crashes are not
		}
		out := encodeRecord(g)
		g2, err := decodeRecord(img, out)
		if err != nil {
			t.Fatalf("re-decode of own record failed: %v", err)
		}
		if !bytes.Equal(encodeRecord(g2), out) {
			t.Fatal("record of a decoded graph is not a fixed point")
		}
		rep, rep2 := hglint.Lint(g), hglint.Lint(g2)
		if !bytes.Equal(rep.JSON(), rep2.JSON()) {
			t.Fatalf("lint differs across round-trip:\n--- first\n%s\n--- second\n%s", rep.JSON(), rep2.JSON())
		}
		if i, ok := seeds[string(data)]; ok && i == which && rep.HasErrors() {
			t.Fatalf("lifted seed graph must lint clean:\n%s", rep)
		}
	})
}
