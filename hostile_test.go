package repro

// The commands that read a binary or a graph report malformed input as
// an error and an exit status, never a panic.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hglint"
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
// (through all three commands), and truncated and byte-flipped copies of
// the weird-edge graph in .hg text and compact binary form (through
// hgprove -hg and hglint -hg). No stderr holds a panic or a goroutine
// dump. Every binary, and every graph file the loader rejects, makes the
// command exit 1 with exactly one stderr line "<command>: <file>: …". A
// copy that still loads is a graph like any other, so its exit statuses
// are computed from it: hglint exits 1 exactly when hglint.Lint reports an
// error, and hgprove exits 1 unless the graph is lint-clean and lift.Check
// proves every theorem.
func TestCommandsRejectHostileInput(t *testing.T) {
	bin := commands(t)
	dir := t.TempDir()

	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// run executes one command and checks its exit status against want
	// and its stderr; it returns the stderr lines.
	run := func(want int, cmd string, args ...string) []string {
		t.Helper()
		c := exec.Command(filepath.Join(bin, cmd), args...)
		var stderr bytes.Buffer
		c.Stderr = &stderr
		err := c.Run()
		if got := c.ProcessState.ExitCode(); got != want {
			t.Errorf("%s %s: %v, want exit status %d\n%s", cmd, strings.Join(args, " "), err, want, stderr.Bytes())
		}
		if s := stderr.String(); strings.Contains(s, "panic:") || strings.Contains(s, "goroutine ") {
			t.Errorf("%s %s panicked:\n%s", cmd, strings.Join(args, " "), s)
		}
		return strings.Split(strings.TrimSpace(stderr.String()), "\n")
	}
	namesInput := func(cmd, path string, lines []string) {
		t.Helper()
		if len(lines) != 1 || !strings.HasPrefix(lines[0], cmd+": "+path+": ") {
			t.Errorf("%s on %s: stderr %q, want one line %q", cmd, filepath.Base(path), lines, cmd+": "+path+": …")
		}
	}

	elfs := map[string][]byte{"spanning-sections.elf": spanningSectionsELF(1000, 164064)}
	for _, name := range []string{"phoff-wrap", "shoff-wrap", "sh-offset-wrap"} {
		elfs[name+".elf"] = fuzzSeed(t, filepath.Join("internal", "image", "testdata", "fuzz", "FuzzImageLoad", name))
	}
	for name, b := range elfs {
		p := write(name, b)
		for _, cmd := range []string{"hglift", "hgprove", "hglint"} {
			namesInput(cmd, p, run(1, cmd, p))
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
	forms := map[string][]byte{
		"hg":   hoare.Marshal(res.Func.Graph),
		"obin": hgstore.MarshalGraph(res.Func.Graph),
	}
	status := func(fails bool) int {
		if fails {
			return 1
		}
		return 0
	}
	runs, rejected := 0, 0
	for form, b := range forms {
		for edit, v := range graphVariants(b) {
			p := write("weird-edge-"+edit+"."+form, v)
			runs += 2
			g, err := hgstore.LoadGraph(img, v)
			if err != nil {
				rejected++
				for _, cmd := range []string{"hgprove", "hglint"} {
					namesInput(cmd, p, run(1, cmd, "-hg", p, elf))
				}
				continue
			}
			lintFails := hglint.Lint(g).HasErrors()
			proves := !lintFails && lift.Check(context.Background(), img, g).AllProven()
			run(status(lintFails), "hglint", "-hg", p, elf)
			run(status(!proves), "hgprove", "-hg", p, elf)
			t.Logf("%s loads: hglint fails %t, hgprove proves %t", filepath.Base(p), lintFails, proves)
		}
	}
	if runs != 64 || rejected < 24 {
		t.Fatalf("%d graph runs, want 64; %d of 32 copies rejected by the loader, want most", runs, rejected)
	}
	t.Logf("%d of 32 graph copies rejected by the loader", rejected)
}
