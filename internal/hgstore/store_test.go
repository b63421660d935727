package hgstore_test

// Property tests for the HGCS container, mirroring the HGSD/HGRS wire
// suites: round-trip through a reopened store, then every way a file can
// go wrong — truncation at each byte, bit corruption at each byte,
// container and lifter version skew, stale dependency bytes — must read
// back as misses or dropped records, never as errors or wrong hits.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
)

// liftScenario lifts one corpus scenario and packages the result as a
// store entry the way the pipeline does.
func liftScenario(t *testing.T, s *corpus.Scenario) (*hgstore.Entry, hgstore.Key) {
	t.Helper()
	l := core.New(s.Image, core.DefaultConfig())
	fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	// Pin the measured wall times so the encoded payload is a pure
	// function of the lift outcome (the determinism test depends on it).
	fr.Duration = 5 * time.Millisecond
	e := &hgstore.Entry{
		Status:     fr.Status,
		Graph:      fr.Stats(),
		Sem:        l.Counters(),
		Wall:       123 * time.Millisecond,
		Duration:   fr.Duration,
		Funcs:      []*core.FuncResult{fr},
		EntryIndex: -1,
	}
	return e, hgstore.TaskKey(s.Image, s.FuncAddr, false, nil)
}

// populated builds a store at path holding every lifted corpus scenario
// and returns the scenarios alongside.
func populated(t *testing.T, path string) []*corpus.Scenario {
	t.Helper()
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		e, key := liftScenario(t, s)
		if _, err := st.Put(key, e, s.Image); err != nil {
			t.Fatalf("put %s: %v", s.Name, err)
		}
	}
	if st.Len() != len(scenarios) {
		t.Fatalf("store holds %d entries, want %d", st.Len(), len(scenarios))
	}
	return scenarios
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	scenarios := populated(t, path)

	// A fresh process opening the same file sees every entry and decodes
	// it back to the lifted result, pointer identity included.
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped() != 0 || st.Len() != len(scenarios) {
		t.Fatalf("reopen: len=%d dropped=%d", st.Len(), st.Dropped())
	}
	for _, s := range scenarios {
		orig, key := liftScenario(t, s)
		e, n, _, reason := st.Lookup(key, s.Image)
		if e == nil {
			t.Fatalf("%s: miss (%s)", s.Name, reason)
		}
		if n <= 0 {
			t.Fatalf("%s: payload size %d", s.Name, n)
		}
		if e.Status != orig.Status || e.Graph != orig.Graph || e.Sem != orig.Sem {
			t.Fatalf("%s: stats replay mismatch:\n%+v\nvs\n%+v", s.Name, e, orig)
		}
		if e.Wall != orig.Wall {
			t.Fatalf("%s: wall replay %v, want %v", s.Name, e.Wall, orig.Wall)
		}
		if len(e.Funcs) != 1 || e.EntryIndex != -1 {
			t.Fatalf("%s: funcs=%d entryIndex=%d", s.Name, len(e.Funcs), e.EntryIndex)
		}
		got, want := e.Funcs[0], orig.Funcs[0]
		if got.Name != want.Name || got.Addr != want.Addr || got.Status != want.Status ||
			got.Returns != want.Returns || got.Steps != want.Steps {
			t.Fatalf("%s: func record mismatch: %+v vs %+v", s.Name, got, want)
		}
		if (got.Graph == nil) != (want.Graph == nil) {
			t.Fatalf("%s: graph presence differs", s.Name)
		}
		if got.Graph != nil {
			// Joins and edge-less instructions are lifting-time data
			// neither serial format carries (the Entry.Graph stats field
			// replays the original counts instead; both the .hg text and
			// wire formats rebuild Instrs from edges); the vertex/edge
			// structure, and the resolved indirections read off it, must
			// survive.
			gs, ws := got.Graph.Stats(), want.Graph.Stats()
			if gs.States != ws.States || gs.Edges != ws.Edges || gs.ResolvedInd != ws.ResolvedInd ||
				gs.Obligations != ws.Obligations || gs.Assumptions != ws.Assumptions {
				t.Fatalf("%s: decoded graph structure differs:\n%+v\nvs\n%+v", s.Name, gs, ws)
			}
			// The decoded graph re-marshals identically to the original:
			// the interned DAG survived with pointer identity restored.
			if !bytes.Equal(hoare.Marshal(got.Graph), hoare.Marshal(want.Graph)) {
				t.Fatalf("%s: decoded graph re-marshal differs", s.Name)
			}
		}
	}
	// A lookup under a key the store never saw is an "absent" miss.
	if e, _, _, reason := st.Lookup(hgstore.Key{Code: 1}, scenarios[0].Image); e != nil || reason != "absent" {
		t.Fatalf("unknown key: entry=%v reason=%q", e, reason)
	}
}

func TestStoreRewriteIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.hgcs")
	pathB := filepath.Join(dir, "b.hgcs")
	populated(t, pathA)
	populated(t, pathB)
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical corpus runs wrote different containers")
	}
}

func TestStoreTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	n := len(populated(t, path))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 37 {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := hgstore.Open(path)
		if err != nil {
			t.Fatalf("cut %d: open error: %v", cut, err)
		}
		if st.Len() >= n && cut < len(data) {
			// The only way to keep all records is the full file; any
			// proper prefix must have dropped at least the tail record.
			if st.Dropped() == 0 {
				t.Fatalf("cut %d: kept %d records with nothing dropped", cut, st.Len())
			}
		}
	}
}

func TestStoreCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	scenarios := populated(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at a sweep of positions: the store must open without
	// error every time, and every surviving record must still decode —
	// the checksum rejects damaged payloads before Lookup can see them.
	for pos := 0; pos < len(data); pos += 53 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := hgstore.Open(path)
		if err != nil {
			t.Fatalf("pos %d: open error: %v", pos, err)
		}
		for _, s := range scenarios {
			_, key := liftScenario(t, s)
			if e, _, _, reason := st.Lookup(key, s.Image); e == nil && reason == "corrupt" {
				t.Fatalf("pos %d: checksummed payload decoded as corrupt", pos)
			}
		}
	}
}

func TestStoreVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	populated(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A future container version: the whole file is unusable — dropped,
	// not an error.
	future := append([]byte(nil), data...)
	future[len(hgstore.Magic)] = hgstore.Version + 1
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Dropped() == 0 {
		t.Fatalf("future version: len=%d dropped=%d, want 0/>0", st.Len(), st.Dropped())
	}

	// A different lifter version inside the records: every record is
	// stale, dropped record by record.
	old := bytes.ReplaceAll(data, []byte(hgstore.LifterVersion), []byte("hg-lifter/0"))
	if len(old) != len(data) {
		t.Fatalf("lifter version string length changed; fix the test replacement")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Dropped() == 0 {
		t.Fatalf("lifter skew: len=%d dropped=%d, want 0/>0", st.Len(), st.Dropped())
	}
}

func TestStoreStaleDependencies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	s := scenarios[0]
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e, key := liftScenario(t, s)
	if e.Funcs[0].Graph == nil {
		t.Skipf("scenario %s did not lift; no dependency ranges to test", s.Name)
	}
	if _, err := st.Put(key, e, s.Image); err != nil {
		t.Fatal(err)
	}

	// Rebuild the image with one executed instruction byte changed but
	// the same symbol layout: the primary key is recomputed by the caller
	// (unchanged here — we reuse the stored key), so the dependency hash
	// is the guard that must catch the drift.
	raw := append([]byte(nil), s.Raw...)
	var addr uint64
	for a := range e.Funcs[0].Graph.Instrs {
		addr = a
		break
	}
	off, ok := fileOffsetOf(s.Image, addr)
	if !ok {
		t.Fatalf("no file offset for %#x", addr)
	}
	raw[off] ^= 0x01
	img2, err := image.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _, reason := st.Lookup(key, img2); got != nil || reason != "stale" {
		t.Fatalf("mutated dependency bytes: entry=%v reason=%q, want stale miss", got, reason)
	}
	// Against the original image the entry still hits.
	if got, _, _, reason := st.Lookup(key, s.Image); got == nil {
		t.Fatalf("original image: miss (%s)", reason)
	}
}

// fileOffsetOf maps a virtual address to its raw-file offset.
func fileOffsetOf(img *image.Image, addr uint64) (uint64, bool) {
	for _, sec := range img.File().Sections {
		if sec.Data != nil && addr >= sec.Addr && addr < sec.Addr+uint64(len(sec.Data)) {
			return sec.Off + (addr - sec.Addr), true
		}
	}
	return 0, false
}

func TestKeySensitivity(t *testing.T) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	s := scenarios[0]
	base := hgstore.TaskKey(s.Image, s.FuncAddr, false, nil)

	// Same inputs, same key.
	if again := hgstore.TaskKey(s.Image, s.FuncAddr, false, nil); again != base {
		t.Fatal("TaskKey is not deterministic")
	}
	// A configuration that changes lift semantics changes the key.
	cfg := core.DefaultConfig()
	cfg.NoJoin = true
	if k := hgstore.TaskKey(s.Image, s.FuncAddr, false, &cfg); k.Cfg == base.Cfg {
		t.Fatal("NoJoin did not change the config fingerprint")
	}
	// Binary and function tasks at the same address never collide.
	if k := hgstore.TaskKey(s.Image, s.FuncAddr, true, nil); k.Code == base.Code {
		t.Fatal("binary and function code hashes collide")
	}
	// Changing any code byte changes the binary hash.
	raw := append([]byte(nil), s.Raw...)
	raw[len(raw)-1] ^= 0xff
	img2, err := image.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if hgstore.CodeHash(img2, 0, true) == hgstore.CodeHash(s.Image, 0, true) {
		t.Fatal("binary code hash ignored a byte change")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	scenarios, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		if fr.Graph == nil || fr.Graph.EntryID == "" {
			continue
		}
		data := hgstore.MarshalGraph(fr.Graph)
		if !bytes.HasPrefix(data, []byte(hgstore.Magic)) {
			t.Fatalf("%s: marshal did not produce the HGCS magic", s.Name)
		}
		g, err := hgstore.LoadGraph(s.Image, data)
		if err != nil {
			t.Fatalf("%s: load: %v", s.Name, err)
		}
		if !bytes.Equal(hoare.Marshal(g), hoare.Marshal(fr.Graph)) {
			t.Fatalf("%s: graph file round-trip drifted", s.Name)
		}
		// The .hg text is a rendering, not a graph file.
		if _, err := hgstore.LoadGraph(s.Image, hoare.Marshal(fr.Graph)); err == nil || !strings.Contains(err.Error(), "not an HGCS graph file") {
			t.Fatalf("%s: .hg text: %v, want a not-a-graph-file error", s.Name, err)
		}

		// Standalone files fail loudly on damage, unlike store records.
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x40
		if _, err := hgstore.LoadGraph(s.Image, bad); err == nil {
			t.Fatalf("%s: corrupt graph file loaded without error", s.Name)
		}
		if _, err := hgstore.LoadGraph(s.Image, data[:len(data)-3]); err == nil {
			t.Fatalf("%s: truncated graph file loaded without error", s.Name)
		}
		break // one lifted scenario is enough for the file format
	}
}

// fuzzSeed reads the bytes of a checked-in fuzz corpus entry.
func fuzzSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}

// TestGraphFileRejectsVersion1: a graph file written before the record
// kept tree and forest tables fails loudly, naming its version.
func TestGraphFileRejectsVersion1(t *testing.T) {
	s, err := corpus.Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	_, err = hgstore.LoadGraph(s.Image, fuzzSeed(t, "FuzzLoadGraph", "v1-graph"))
	if err == nil || !strings.Contains(err.Error(), "unsupported container version 1") {
		t.Fatalf("version-1 graph file: %v, want an unsupported-version error", err)
	}
}

// TestStoreDropsVersion1Container: a version-1 store container is dropped
// whole — a miss for every entry, not an error — and the first flush
// rewrites it as a current container.
func TestStoreDropsVersion1Container(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.hgcs")
	if err := os.WriteFile(path, fuzzSeed(t, "FuzzStoreOpen", "v1-container"), 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Dropped() != 1 {
		t.Fatalf("version-1 container: len=%d dropped=%d, want 0/1", st.Len(), st.Dropped())
	}
	e, key, img, err := stressEntry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(key, e, img); err != nil {
		t.Fatal(err)
	}
	re, err := hgstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 || re.Dropped() != 0 {
		t.Fatalf("after the first flush: len=%d dropped=%d, want 1/0", re.Len(), re.Dropped())
	}
}
