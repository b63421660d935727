package hoare

import (
	"strings"
	"testing"

	"repro/internal/elf64"
	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/pred"
	"repro/internal/x86"
)

// TestMarshalContainsClauses renders the sample graph, given a clause of
// every kind, as .hg text: each appears in the grammar's syntax.
func TestMarshalContainsClauses(t *testing.T) {
	g := sampleGraph()
	p := g.Vertices["401000"].State.Pred
	p.SetCmp(&pred.Cmp{Kind: pred.CmpSub, Lhs: expr.V("rdi0"), Rhs: expr.Word(7), Size: 8})
	p.SetFlag(x86.CF, expr.Word(1)) // after SetCmp, which clears flags
	p.AddRange(expr.V("idx"), pred.Range{Lo: 1, Hi: 9})
	data := string(Marshal(g))
	for _, want := range []string{
		"hg 0x401000 f S_401000\n",
		"entry 401000\n",
		"vertex 401000 0x401000\n",
		" reg rsp rsp0\n",
		" flag cf 0x1\n",
		" cmp sub 8 rdi0 0x7\n",
		" range idx 0x1 0x9\n",
		" mem rsp0 8 S_401000\n",
		" model (rsp0#8 ())\n",
		"edge 401000 401005 0 0x401000 -\n",
		"edge 401005 exit 3 0x401005 -\n",
	} {
		if !strings.Contains(data, want) {
			t.Errorf("marshal missing %q:\n%s", want, data)
		}
	}
}

// buildTestImage assembles a two-instruction image for decoder tests.
func buildTestImage(t *testing.T) *image.Image {
	t.Helper()
	a := x86.NewAsm(0x401000)
	a.I(x86.MOV, x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 4))
	a.I(x86.RET)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b := elf64.NewExec(0x401000)
	b.AddSection(".text", elf64.SHFExecinstr, 0x401000, code)
	raw, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestDOTFromSample(t *testing.T) {
	g := sampleGraph()
	dot := g.ToDOT()
	for _, want := range []string{"digraph", "mov rax, 0x1", "exit", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q", want)
		}
	}
}
