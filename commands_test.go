package repro

// The commands built once per test binary, and the flow that saves a graph
// with one command and checks it with another.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/corpus"
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

// TestCommandsProvePointerFactsGraphs saves each ptr_ unit's graph lifted
// with pointer facts (hglift -ptr -func … -obin) and checks the saved file
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
		graph := filepath.Join(dir, u.Name+".obin")
		lift := exec.Command(filepath.Join(bin, "hglift"), "-ptr", "-func", fmt.Sprintf("%#x", u.FuncAddr), "-obin", graph, elf)
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
// hglift -func … -o (.hg text) and -obin (binary container). hgprove -hg
// and hglint -hg must exit 0 on both files: a saved graph records its
// resolved jump as the edges that leave it, so it lints and proves as the
// lifted graph does.
func TestCommandsCheckSavedWeirdEdge(t *testing.T) {
	bin := commands(t)
	dir := t.TempDir()
	s, err := corpus.WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	elf := filepath.Join(dir, "weird-edge.elf")
	if err := os.WriteFile(elf, s.Raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, form := range []string{"-o", "-obin"} {
		graph := filepath.Join(dir, "weird-edge"+form)
		lift := exec.Command(filepath.Join(bin, "hglift"), "-func", fmt.Sprintf("%#x", s.FuncAddr), form, graph, elf)
		if out, err := lift.CombinedOutput(); err != nil {
			t.Errorf("hglift %s: %v\n%s", form, err, out)
			continue
		}
		for _, cmd := range []string{"hgprove", "hglint"} {
			if out, err := exec.Command(filepath.Join(bin, cmd), "-hg", graph, elf).CombinedOutput(); err != nil {
				t.Errorf("%s -hg on the hglift %s file: %v\n%s", cmd, form, err, out)
			}
		}
	}
}
