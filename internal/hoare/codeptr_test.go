package hoare_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elf64"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/x86"
)

// slotPointerBase is where slotPointerFunc is assembled.
const slotPointerBase = 0x401000

// slotPointerFunc assembles a function that keeps a function pointer in a
// stack slot across a loop and then calls it. The loop head's vertex ID
// carries a memory code-pointer part, m<address key>=<pointer>, and so
// does every join variable named after it.
func slotPointerFunc(t testing.TB) *image.Image {
	t.Helper()
	slot := x86.MemOp(x86.RBP, x86.RegNone, 1, -8, 8)
	a := x86.NewAsm(slotPointerBase)
	a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
	a.I(x86.MOV, x86.RegOp(x86.RBP, 8), x86.RegOp(x86.RSP, 8))
	a.LeaLabel(x86.RAX, "callee")
	a.I(x86.MOV, slot, x86.RegOp(x86.RAX, 8))
	a.Label("loop")
	a.I(x86.SUB, x86.RegOp(x86.RDI, 8), x86.ImmOp(1, 1))
	a.Jcc(x86.CondNE, "loop")
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), slot)
	a.I(x86.CALL, x86.RegOp(x86.RAX, 8))
	a.I(x86.POP, x86.RegOp(x86.RBP, 8))
	a.I(x86.RET)
	a.Label("callee")
	a.I(x86.RET)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b := elf64.NewExec(slotPointerBase)
	b.AddSection(".text", elf64.SHFExecinstr, slotPointerBase, code)
	b.AddFunc("slot_pointer", slotPointerBase, uint64(len(code)))
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCodePointerJoinVariablesLoad lifts slotPointerFunc, saves its graph
// as a graph file and loads it back. Its join variables embed a vertex ID
// whose memory part holds parentheses and a comma; the loaded graph must
// render to the same .hg text.
func TestCodePointerJoinVariablesLoad(t *testing.T) {
	img := slotPointerFunc(t)
	fr := core.New(img, core.DefaultConfig()).LiftFuncCtx(context.Background(), slotPointerBase, "slot_pointer")
	if fr.Status != core.StatusLifted || fr.Graph == nil {
		t.Fatalf("slot_pointer: %s %v", fr.Status, fr.Reasons)
	}
	text := hoare.Marshal(fr.Graph)
	if !bytes.Contains(text, []byte("/madd(rsp0,")) || !bytes.Contains(text, []byte(" j")) {
		t.Fatalf("no join variable of a vertex with a memory code-pointer part:\n%s", text)
	}
	g, err := hgstore.LoadGraph(img, hgstore.MarshalGraph(fr.Graph))
	if err != nil {
		t.Fatal(err)
	}
	if again := hoare.Marshal(g); !bytes.Equal(again, text) {
		t.Fatalf("re-marshalled text differs:\n--- lifted\n%s\n--- loaded\n%s", text, again)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "vertex ") && strings.Contains(line, "/m") {
			t.Logf("%s", line)
		}
	}
}
