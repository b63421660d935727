// This file implements the .hg text rendering of a Hoare graph: Marshal
// writes every vertex invariant, memory model, edge, annotation,
// obligation and assumption of a graph as line-oriented text, for people
// and diffs to read (hglift -dump prints it). Graphs are saved and loaded
// in the binary HGCS graph file (wire.go, internal/hgstore), not in this
// form.
//
// Grammar (one record per line; indented lines are clauses of the most
// recent vertex; EXPR is the canonical expression syntax of expr.Key,
// e.g. "add(rsp0,0xfffffffffffffff8)"):
//
//	file       = header entry vertex* edge* annotation* obligation* assumption*
//	header     = "hg" ADDR NAME RETSYM
//	entry      = "entry" VERTEXID
//	vertex     = "vertex" VERTEXID ADDR clause*
//	clause     = " reg"   REGNAME EXPR
//	           | " flag"  FLAGNAME EXPR
//	           | " cmp"   ("sub"|"and") SIZE EXPR EXPR
//	           | " mem"   EXPR SIZE EXPR
//	           | " range" EXPR LO HI
//	           | " model" forest
//	forest     = tree*
//	tree       = "(" region+ "(" forest ")" ")"
//	region     = EXPR "#" SIZE
//	edge       = "edge" FROM TO KIND ADDR (CALLEE | "-")
//	annotation = "annotation" ADDR KIND TEXT
//	obligation = "obligation" TEXT
//	assumption = "assumption" TEXT
//
// Worked example — "mov qword [rdi], 1; ret" at 0x401000, lifted as f.
// The lines "…" stand for the registers bound to their initial values
// (rcx0, …, r150). The write rests on the frame rule's hypothesis that
// [rdi0, 8] misses the return-address slot, and Step 2 assumes the
// separation only because the graph lists it (the assumption line):
//
//	hg 0x401000 f S_401000
//	entry 401000
//	vertex exit 0x0
//	vertex halt 0x0
//	vertex 401000 0x401000
//	 reg rax rax0
//	 …
//	 mem rsp0 8 S_401000
//	 model (rsp0#8 ())
//	vertex 401007 0x401007
//	 reg rax rax0
//	 …
//	 mem rdi0 8 0x1
//	 mem rsp0 8 S_401000
//	 model (rsp0#8 ()) (rdi0#8 ())
//	edge 401000 401007 0 0x401000 -
//	edge 401007 exit 3 0x401007 -
//	assumption @401000 : [rdi0, 8] ASSUMED SEPARATE FROM [rsp0, 8]
//
// Vertex clause order is canonical (registers in GPR order, then flags,
// cmp, memory, ranges, model), and vertices and edges are sorted, so
// equal graphs render to equal bytes.

package hoare

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/x86"
)

// Marshal renders the graph as .hg text: every vertex invariant
// (register, flag, comparison, memory and interval clauses in canonical
// expression syntax), the memory models, the labelled edges, annotations,
// obligations and assumptions. Instructions appear by address only.
func Marshal(g *Graph) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "hg %#x %s %s\n", g.FuncAddr, g.FuncName, g.RetSym)
	fmt.Fprintf(&b, "entry %s\n", g.EntryID)
	for _, v := range g.SortedVertices() {
		fmt.Fprintf(&b, "vertex %s %#x\n", v.ID, v.Addr)
		if v.State == nil {
			continue
		}
		p := v.State.Pred
		for _, r := range x86.GPRs {
			if e := p.Reg(r); e != nil {
				fmt.Fprintf(&b, " reg %s %s\n", r, e.Key())
			}
		}
		for f := x86.Flag(0); f < x86.NumFlags; f++ {
			if e := p.Flag(f); e != nil {
				fmt.Fprintf(&b, " flag %s %s\n", f, e.Key())
			}
		}
		if c := p.LastCmp(); c != nil {
			kind := "sub"
			if c.Kind == pred.CmpAnd {
				kind = "and"
			}
			fmt.Fprintf(&b, " cmp %s %d %s %s\n", kind, c.Size, c.Lhs.Key(), c.Rhs.Key())
		}
		p.MemEntries(func(e pred.MemEntry) {
			fmt.Fprintf(&b, " mem %s %d %s\n", e.Addr.Key(), e.Size, e.Val.Key())
		})
		p.Ranges(func(e *expr.Expr, r pred.Range) {
			fmt.Fprintf(&b, " range %s %#x %#x\n", e.Key(), r.Lo, r.Hi)
		})
		fmt.Fprintf(&b, " model %s\n", marshalForest(v.State.Mem))
	}
	for _, e := range g.SortedEdges() {
		callee := e.Callee
		if callee == "" {
			callee = "-"
		}
		fmt.Fprintf(&b, "edge %s %s %d %#x %s\n", e.From, e.To, e.Kind, e.Addr, callee)
	}
	for _, a := range g.Annotations {
		fmt.Fprintf(&b, "annotation %#x %d %s\n", a.Addr, a.Kind, a.Text)
	}
	for _, o := range g.Obligations {
		fmt.Fprintf(&b, "obligation %s\n", o)
	}
	for _, a := range g.Assumptions {
		fmt.Fprintf(&b, "assumption %s\n", a)
	}
	return []byte(b.String())
}

// marshalForest encodes a memory model as nested parentheses:
// forest = tree*, tree = "(" region+ "(" forest ")" ")", region = key#size.
func marshalForest(f memmodel.Forest) string {
	var b strings.Builder
	for i, t := range f {
		if i > 0 {
			b.WriteByte(' ')
		}
		marshalTree(&b, t)
	}
	return b.String()
}

func marshalTree(b *strings.Builder, t *memmodel.Tree) {
	b.WriteByte('(')
	for i, r := range t.Regions {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%s#%d", r.Addr.Key(), r.Size)
	}
	b.WriteString(" (")
	for i, kid := range t.Kids {
		if i > 0 {
			b.WriteByte(' ')
		}
		marshalTree(b, kid)
	}
	b.WriteString("))")
}
