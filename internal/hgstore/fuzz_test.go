package hgstore_test

// Fuzz target for the HGCS container: for ANY byte string presented as a
// store file, Open must return without error or panic (content defects
// are misses, not failures), and every record that survives loading must
// either decode cleanly or miss with a reason under Lookup. Seeded with a
// real populated container, its truncations, bit-corrupted variants, and
// a standalone graph file (the wrong file kind for a store).

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/wire"
)

// fuzzImage lazily builds one corpus scenario image for Lookup probing.
var fuzzImage = sync.OnceValues(func() (*corpus.Scenario, error) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		return nil, err
	}
	return scenarios[0], nil
})

func FuzzStoreOpen(f *testing.F) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	var graphSeed []byte
	for _, s := range scenarios {
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		e := &hgstore.Entry{
			Status:     fr.Status,
			Graph:      fr.Stats(),
			Sem:        l.Counters(),
			Funcs:      []*core.FuncResult{fr},
			EntryIndex: -1,
		}
		if _, err := st.Put(hgstore.TaskKey(s.Image, s.FuncAddr, false, nil), e, s.Image); err != nil {
			f.Fatal(err)
		}
		if graphSeed == nil && fr.Graph != nil && fr.Graph.EntryID != "" {
			graphSeed = hgstore.MarshalGraph(fr.Graph)
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	f.Add([]byte("HGCS"))
	f.Add([]byte{})
	if graphSeed != nil {
		f.Add(graphSeed) // wrong file kind for a store
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/3] ^= 0x80
	f.Add(corrupt)
	f.Add(swappedClauseStore(f, scenarios[0], dir))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.hgcs")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := hgstore.Open(p)
		if err != nil {
			t.Fatalf("Open returned a content error: %v", err)
		}
		probe, perr := fuzzImage()
		if perr != nil {
			t.Skip()
		}
		for _, k := range s.Keys() {
			e, n, _, reason := s.Lookup(k, probe.Image)
			if e == nil && reason == "" {
				t.Fatal("miss without a reason")
			}
			if e != nil && n <= 0 {
				t.Fatal("hit with non-positive payload size")
			}
		}
		// The loaded prefix must survive a rewrite round-trip: Put-ing
		// one more record flushes the container, which must reopen to at
		// least the same records.
		before := s.Len()
		probeEntry := &hgstore.Entry{Status: core.StatusError, EntryIndex: -1}
		key := hgstore.TaskKey(probe.Image, probe.FuncAddr, false, nil)
		if _, err := s.Put(key, probeEntry, probe.Image); err != nil {
			t.Fatalf("Put after load: %v", err)
		}
		re, err := hgstore.Open(p)
		if err != nil {
			t.Fatalf("reopen after rewrite: %v", err)
		}
		if re.Dropped() != 0 {
			t.Fatalf("rewritten container drops %d records", re.Dropped())
		}
		if re.Len() < before {
			t.Fatalf("rewrite lost records: %d -> %d", before, re.Len())
		}
	})
}

// swappedClauseStore returns a one-record container for scenario s whose
// graph lists two memory clauses of one vertex out of canonical order,
// resealed under a valid checksum: the container opens, and Lookup must
// then miss it as corrupt rather than install the list.
func swappedClauseStore(f *testing.F, s *corpus.Scenario, dir string) []byte {
	l := core.New(s.Image, core.DefaultConfig())
	fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	if fr.Graph == nil || fr.Graph.EntryID == "" {
		f.Fatalf("%s: no graph to store", s.Name)
	}
	e := &hgstore.Entry{Status: fr.Status, Graph: fr.Stats(), Sem: l.Counters(),
		Funcs: []*core.FuncResult{fr}, EntryIndex: -1}
	key := hgstore.TaskKey(s.Image, s.FuncAddr, false, nil)
	path := filepath.Join(dir, "swapped.hgcs")
	st, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Put(key, e, s.Image); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	// Walk the container header and the one record to its payload.
	d := wire.NewDecoder(data)
	d.Bytes(uint64(len(hgstore.Magic)), "magic")
	d.Uvarint("version")
	d.Byte("file kind")
	d.Uint64("code")
	d.Uint64("config")
	d.Uvarint("address")
	d.Byte("binary")
	d.String("lifter version")
	payload := d.Bytes(d.Uvarint("payload length"), "payload") // aliases data
	if d.Err() != nil {
		f.Fatal(d.Err())
	}

	// The first vertex with two or more memory clauses whose encoded
	// list, against the table the payload carries, occurs once in it.
	tab := expr.NewTable()
	hoare.CollectWireExprs(tab, fr.Graph)
	at := -1
	var swapped []byte
	for _, v := range fr.Graph.SortedVertices() {
		if v.State == nil || v.State.Pred.NumMem() < 2 {
			continue
		}
		var clauses [][]byte
		v.State.Pred.MemEntries(func(m pred.MemEntry) {
			b := wire.AppendUvarint(nil, uint64(tab.Index(m.Addr)))
			b = wire.AppendUvarint(b, uint64(m.Size))
			clauses = append(clauses, wire.AppendUvarint(b, uint64(tab.Index(m.Val))))
		})
		head := [][]byte{wire.AppendUvarint(nil, uint64(len(clauses)))}
		list := slices.Concat(append(head, clauses...)...)
		clauses[0], clauses[1] = clauses[1], clauses[0]
		swapped = slices.Concat(append(head, clauses...)...)
		if bytes.Count(payload, list) == 1 {
			at = bytes.Index(payload, list)
			break
		}
	}
	if at < 0 {
		f.Fatalf("%s: no memory clause list to swap", s.Name)
	}
	copy(payload[at:], swapped)
	binary.LittleEndian.PutUint64(data[d.Pos():], hgstore.PayloadChecksum(payload))

	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	re, err := hgstore.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if got, _, _, reason := re.Lookup(key, s.Image); got != nil || reason != "corrupt" {
		f.Fatalf("%s: swapped memory clauses: lookup reason %q, want a corrupt miss", s.Name, reason)
	}
	return data
}
