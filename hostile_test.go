package repro

// The commands that read a binary or a graph report malformed input as
// an error and an exit status, never a panic.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/lift"
)

// spanningSectionsELF returns a size-byte x86-64 executable whose section
// table, at the end of the file, holds headers PROGBITS sections at offset
// 0 that each span the whole file. It loads (the sections overlap but are
// in range) and has nothing executable at its entry point.
func spanningSectionsELF(headers, size int) []byte {
	le := binary.LittleEndian
	b := make([]byte, size)
	copy(b, "\x7fELF\x02\x01\x01")
	shoff := size - headers*64
	le.PutUint16(b[16:], 2)    // ET_EXEC
	le.PutUint16(b[18:], 0x3e) // EM_X86_64
	le.PutUint32(b[20:], 1)    // EV_CURRENT
	le.PutUint64(b[40:], uint64(shoff))
	le.PutUint16(b[52:], 64) // e_ehsize
	le.PutUint16(b[58:], 64) // e_shentsize
	le.PutUint16(b[60:], uint16(headers))
	for i := 0; i < headers; i++ {
		sh := b[shoff+64*i:]
		le.PutUint32(sh[4:], 1) // SHT_PROGBITS
		le.PutUint64(sh[32:], uint64(size))
	}
	return b
}

// fuzzSeed reads the []byte value of a native fuzz corpus file.
func fuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a one-value []byte fuzz seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// graphVariants returns truncated and byte-flipped copies of a serialized
// graph, named by the edit: eight prefixes (the empty one included) and
// eight single-byte flips spread over the file.
func graphVariants(b []byte) map[string][]byte {
	out := map[string][]byte{}
	for i := 0; i < 8; i++ {
		n := len(b) * i / 8
		out[fmt.Sprintf("trunc%d", n)] = b[:n]
	}
	for i := 0; i < 8; i++ {
		off := (len(b) - 1) * i / 7
		c := bytes.Clone(b)
		c[off] ^= 0xff
		out[fmt.Sprintf("flip%d", off)] = c
	}
	return out
}

// TestCommandsRejectHostileInput runs hglift, hgprove and hglint on
// hostile input: the three wrapping header edits of the
// FuzzImageLoad seeds and a 1,000-header table of file-spanning sections
// (through all three commands), and the weird-edge graph's .hg text and
// truncated and byte-flipped copies of its graph file (through hgprove -hg
// and hglint -hg). No stderr holds a panic or a goroutine dump. Every
// binary and every graph input is rejected: the command exits 1 with
// exactly one stderr line "<command>: <file>: …", which for the text and
// for copies without the file's magic says it is not an HGCS graph file.
func TestCommandsRejectHostileInput(t *testing.T) {
	dir := t.TempDir()

	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// rejects runs one command on one input, which it must reject: exit
	// status 1, no panic, one stderr line naming the input. It returns
	// that line.
	rejects := func(cmd, input string, args ...string) string {
		t.Helper()
		code, stderr := run(t, cmd, args...)
		if code != 1 {
			t.Errorf("%s %s: exit status %d, want 1\n%s", cmd, strings.Join(args, " "), code, stderr)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%s %s panicked:\n%s", cmd, strings.Join(args, " "), stderr)
		}
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], cmd+": "+input+": ") {
			t.Errorf("%s on %s: stderr %q, want one line %q", cmd, filepath.Base(input), lines, cmd+": "+input+": …")
		}
		return lines[0]
	}

	elfs := map[string][]byte{"spanning-sections.elf": spanningSectionsELF(1000, 164064)}
	for _, name := range []string{"phoff-wrap", "shoff-wrap", "sh-offset-wrap"} {
		elfs[name+".elf"] = fuzzSeed(t, filepath.Join("internal", "image", "testdata", "fuzz", "FuzzImageLoad", name))
	}
	for name, b := range elfs {
		p := write(name, b)
		for _, cmd := range []string{"hglift", "hgprove", "hglint"} {
			rejects(cmd, p, p)
		}
	}

	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Load(s.Raw)
	if err != nil {
		t.Fatal(err)
	}
	elf := write("weird-edge.elf", s.Raw)
	res := lift.One(context.Background(), lift.Func("sub_401000", img, img.Entry()))
	if res.Func == nil || res.Func.Graph == nil {
		t.Fatalf("weird-edge did not lift: %s", res.Status)
	}
	inputs := map[string][]byte{"weird-edge.hg": hoare.Marshal(res.Func.Graph)}
	for edit, v := range graphVariants(hgstore.MarshalGraph(res.Func.Graph)) {
		if _, err := hgstore.LoadGraph(img, v); err == nil {
			t.Errorf("graph file copy %s loads", edit)
		}
		inputs["weird-edge-"+edit+".hgcs"] = v
	}
	if len(inputs) != 17 {
		t.Fatalf("%d graph inputs, want the text and 16 copies", len(inputs))
	}
	for name, b := range inputs {
		p := write(name, b)
		noMagic := name == "weird-edge.hg" || name == "weird-edge-trunc0.hgcs" || name == "weird-edge-flip0.hgcs"
		for _, cmd := range []string{"hgprove", "hglint"} {
			if line := rejects(cmd, p, "-hg", p, elf); noMagic && !strings.HasSuffix(line, ": not an HGCS graph file") {
				t.Errorf("%s on %s: %q, want it to say the file is not an HGCS graph file", cmd, name, line)
			}
		}
	}
}
