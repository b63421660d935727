package repro

// The commands built once per test binary, and the flow that saves a graph
// with one command and checks it with another.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hoare"
	"repro/lift"
)

var (
	commandsOnce sync.Once
	commandsDir  string
	commandsErr  error
)

// commands builds hglift, hgprove and hglint on first use and returns the
// directory that holds them; TestMain removes it.
func commands(t *testing.T) string {
	t.Helper()
	commandsOnce.Do(func() {
		if commandsDir, commandsErr = os.MkdirTemp("", "repro-commands-"); commandsErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", commandsDir, "./cmd/hglift", "./cmd/hgprove", "./cmd/hglint")
		if out, err := build.CombinedOutput(); err != nil {
			commandsErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if commandsErr != nil {
		t.Fatal(commandsErr)
	}
	return commandsDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if commandsDir != "" {
		os.RemoveAll(commandsDir)
	}
	os.Exit(code)
}

// run executes one of the commands and returns its exit status and stderr.
func run(t *testing.T, cmd string, args ...string) (int, string) {
	t.Helper()
	c := exec.Command(filepath.Join(commands(t), cmd), args...)
	var stderr bytes.Buffer
	c.Stderr = &stderr
	if err := c.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	return c.ProcessState.ExitCode(), stderr.String()
}

// saveWeirdEdge writes the Section 2 weird-edge binary into dir and saves
// its function's graph with hglift -func … -o. It returns the binary's
// path, the function's address and the graph file's path.
func saveWeirdEdge(t *testing.T, dir string) (elf, fn, graph string) {
	t.Helper()
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	elf = filepath.Join(dir, "weird-edge.elf")
	if err := os.WriteFile(elf, s.Raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fn = fmt.Sprintf("%#x", s.FuncAddr)
	graph = filepath.Join(dir, "weird-edge.hgcs")
	if code, stderr := run(t, "hglift", "-func", fn, "-o", graph, elf); code != 0 {
		t.Fatalf("hglift -o: exit %d\n%s", code, stderr)
	}
	return elf, fn, graph
}

// TestCommandsProvePointerFactsGraphs saves each ptr_ unit's graph lifted
// with pointer facts (hglift -ptr -func … -o) and checks the saved file
// (hgprove -hg). Each check must exit 0 with 0 failed theorems: the saved
// assumption list carries every hypothesis the lift rests on.
func TestCommandsProvePointerFactsGraphs(t *testing.T) {
	bin := commands(t)
	dir := t.TempDir()
	ptrDir, err := corpus.PtrPathology()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ptrDir.Units {
		elf := filepath.Join(dir, u.Name+".elf")
		if err := os.WriteFile(elf, u.Image.Raw(), 0o644); err != nil {
			t.Fatal(err)
		}
		graph := filepath.Join(dir, u.Name+".hgcs")
		lift := exec.Command(filepath.Join(bin, "hglift"), "-ptr", "-func", fmt.Sprintf("%#x", u.FuncAddr), "-o", graph, elf)
		if out, err := lift.CombinedOutput(); err != nil {
			t.Errorf("hglift -ptr %s: %v\n%s", u.Name, err, out)
			continue
		}
		out, err := exec.Command(filepath.Join(bin, "hgprove"), "-hg", graph, elf).CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte(" 0 failed\n")) {
			t.Errorf("hgprove -hg %s: %v\n%s", u.Name, err, out)
		}
	}
}

// TestCommandsCheckSavedWeirdEdge saves the Section 2 weird-edge graph,
// whose indirect jump resolves to the instruction inside another, with
// hglift -func … -o. hgprove -hg and hglint -hg must exit 0 on the file:
// a saved graph records its resolved jump as the edges that leave it, so
// it lints and proves as the lifted graph does.
func TestCommandsCheckSavedWeirdEdge(t *testing.T) {
	elf, _, graph := saveWeirdEdge(t, t.TempDir())
	for _, cmd := range []string{"hgprove", "hglint"} {
		if code, stderr := run(t, cmd, "-hg", graph, elf); code != 0 {
			t.Errorf("%s -hg on the hglift -o file: exit %d\n%s", cmd, code, stderr)
		}
	}
}

// TestCommandsLiftOutputsNeedFunc: hglift's -o and -dot write one
// function's graph, so without -func they are usage errors (exit 2, the
// usage line) and no file is written.
func TestCommandsLiftOutputsNeedFunc(t *testing.T) {
	dir := t.TempDir()
	elf, _, _ := saveWeirdEdge(t, dir)
	graph, dot := filepath.Join(dir, "no-func.hgcs"), filepath.Join(dir, "no-func.dot")
	for _, flags := range [][]string{{"-o", graph}, {"-dot", dot}, {"-o", graph, "-dot", dot}} {
		if code, stderr := run(t, "hglift", append(flags, elf)...); code != 2 || !strings.HasPrefix(stderr, "usage: hglift ") {
			t.Errorf("hglift %s without -func: exit %d, want 2 and the usage line\n%s", strings.Join(flags, " "), code, stderr)
		}
	}
	for _, p := range []string{graph, dot} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: written without -func (%v)", filepath.Base(p), err)
		}
	}
}

// TestCommandsProveTheoryOfOneGraph: hgprove -thy writes the theory of
// the one graph it checks, lifted (-func) or saved (-hg), and the two are
// the same text; with neither, -thy is a usage error and writes nothing.
func TestCommandsProveTheoryOfOneGraph(t *testing.T) {
	dir := t.TempDir()
	elf, fn, graph := saveWeirdEdge(t, dir)
	lifted, saved, binary := filepath.Join(dir, "lifted.thy"), filepath.Join(dir, "saved.thy"), filepath.Join(dir, "binary.thy")
	for _, args := range [][]string{{"-func", fn, "-thy", lifted, elf}, {"-hg", graph, "-thy", saved, elf}} {
		if code, stderr := run(t, "hgprove", args...); code != 0 {
			t.Fatalf("hgprove %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
		}
	}
	a, err := os.ReadFile(lifted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(a, []byte("lemma hoare_")) || !bytes.Equal(a, b) {
		t.Errorf("theory of the saved graph differs from the lifted one's:\n--- lifted\n%s\n--- saved\n%s", a, b)
	}
	if code, stderr := run(t, "hgprove", "-thy", binary, elf); code != 2 || !strings.HasPrefix(stderr, "usage: hgprove ") {
		t.Errorf("hgprove -thy without -func or -hg: exit %d, want 2 and the usage\n%s", code, stderr)
	}
	if _, err := os.Stat(binary); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("hgprove -thy wrote a theory in binary mode (%v)", err)
	}
}

// TestCommandsRejectGraphWithFunc: -hg checks a saved graph and -func
// lifts one, so hgprove and hglint refuse the two together (exit 2).
func TestCommandsRejectGraphWithFunc(t *testing.T) {
	elf, fn, graph := saveWeirdEdge(t, t.TempDir())
	for _, cmd := range []string{"hgprove", "hglint"} {
		if code, stderr := run(t, cmd, "-hg", graph, "-func", fn, elf); code != 2 {
			t.Errorf("%s -hg -func: exit %d, want 2\n%s", cmd, code, stderr)
		}
	}
}

// TestCommandsDumpIsTheGraphText: hglift -func … -dump writes the lifted
// graph's .hg text to stdout and nothing else, byte for byte the text
// hoare.Marshal renders for the graph lifted in process, so the output can
// be redirected to a file; the status line goes to stderr.
func TestCommandsDumpIsTheGraphText(t *testing.T) {
	dir := t.TempDir()
	elf, fn, _ := saveWeirdEdge(t, dir)
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	addr, name, err := s.Image.ResolveFunc(fn)
	if err != nil {
		t.Fatal(err)
	}
	res := lift.One(context.Background(), lift.Func(name, s.Image, addr))
	if res.Func == nil || res.Func.Graph == nil {
		t.Fatalf("lift %s: %s", name, res.Status)
	}
	want := hoare.Marshal(res.Func.Graph)

	c := exec.Command(filepath.Join(commands(t), "hglift"), "-func", fn, "-dump", elf)
	var stdout, stderr bytes.Buffer
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		t.Fatalf("hglift -func %s -dump: %v\n%s", fn, err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("hglift -dump stdout is not the graph's .hg text:\n--- stdout\n%s\n--- hoare.Marshal\n%s", stdout.Bytes(), want)
	}
	if status := fmt.Sprintf("%s @ %#x: %s\n", name, addr, res.Func.Status); !strings.HasPrefix(stderr.String(), status) {
		t.Errorf("hglift -dump stderr does not start with the status line %q:\n%s", status, stderr.String())
	}
}
