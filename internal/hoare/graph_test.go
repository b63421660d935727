package hoare

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/sem"
	"repro/internal/x86"
)

func sampleGraph() *Graph {
	g := NewGraph(0x401000, "f", "S_401000")
	g.EntryID = "401000"
	st := sem.InitialState("S_401000")
	g.Vertices["401000"] = &Vertex{ID: "401000", Addr: 0x401000, State: st}
	g.Vertices["401005"] = &Vertex{ID: "401005", Addr: 0x401005, State: st.Clone()}
	g.Vertices[ExitID] = &Vertex{ID: ExitID}
	mov := x86.Inst{Addr: 0x401000, Mn: x86.MOV, Ops: []x86.Operand{
		x86.RegOp(x86.RAX, 8), x86.ImmOp(1, 4)}}
	ret := x86.Inst{Addr: 0x401005, Mn: x86.RET}
	g.Instrs[0x401000] = mov
	g.Instrs[0x401005] = ret
	g.AddEdge(Edge{From: "401000", To: "401005", Addr: mov.Addr, Kind: sem.KFall})
	g.AddEdge(Edge{From: "401005", To: ExitID, Addr: ret.Addr, Kind: sem.KRet})
	return g
}

func TestEdgeDedup(t *testing.T) {
	g := sampleGraph()
	n := len(g.Edges)
	g.AddEdge(g.Edges[0])
	if len(g.Edges) != n {
		t.Fatal("duplicate edge inserted")
	}
}

func TestAnnotateDedup(t *testing.T) {
	g := sampleGraph()
	g.Annotate(0x401000, AnnUnresolvedJump, "first")
	g.Annotate(0x401000, AnnUnresolvedJump, "second")
	g.Annotate(0x401000, AnnUnresolvedCall, "different kind")
	if len(g.Annotations) != 2 {
		t.Fatalf("annotations: %+v", g.Annotations)
	}
}

func TestStats(t *testing.T) {
	g := sampleGraph()
	// An indirect jmp with an edge is resolved; an indirect call whose
	// only edge is an unresolved call's continuation is not.
	jmp := x86.Inst{Addr: 0x401010, Mn: x86.JMP, Ops: []x86.Operand{x86.RegOp(x86.RAX, 8)}}
	call := x86.Inst{Addr: 0x401020, Mn: x86.CALL, Ops: []x86.Operand{x86.RegOp(x86.RAX, 8)}}
	g.Instrs[jmp.Addr] = jmp
	g.Instrs[call.Addr] = call
	g.AddEdge(Edge{From: "401010", To: "401005", Addr: jmp.Addr, Kind: sem.KJump})
	g.AddEdge(Edge{From: "401020", To: "401022", Addr: call.Addr, Kind: sem.KCall, Callee: UnresolvedCallee})
	g.Annotate(0x401030, AnnUnresolvedJump, "b")
	g.Annotate(0x401020, AnnUnresolvedCall, "c")
	g.Obligations = append(g.Obligations, "ob")
	g.Assumptions = append(g.Assumptions, "as")
	if ind := g.Indirections(); len(ind) != 2 || !ind[jmp.Addr] || ind[call.Addr] {
		t.Fatalf("indirections: %v", ind)
	}
	s := g.Stats()
	if s.Instructions != 4 || s.States != 3 || s.Edges != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if s.ResolvedInd != 1 || s.UnresolvedJump != 1 || s.UnresolvedCall != 1 {
		t.Fatalf("indirection stats: %+v", s)
	}
	if s.Obligations != 1 || s.Assumptions != 1 {
		t.Fatalf("obligation stats: %+v", s)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Instructions != 8 || sum.ResolvedInd != 2 {
		t.Fatalf("sum: %+v", sum)
	}
}

func TestSortedAndQueries(t *testing.T) {
	g := sampleGraph()
	vs := g.SortedVertices()
	if len(vs) != 3 {
		t.Fatalf("vertices: %d", len(vs))
	}
	// Terminal vertices have address 0 and sort first.
	if vs[len(vs)-1].Addr != 0x401005 {
		t.Fatalf("sort order: %+v", vs)
	}
	es := g.SortedEdges()
	if es[0].Addr != 0x401000 {
		t.Fatalf("edge order: %+v", es)
	}
	succ := g.Successors("401000")
	if len(succ) != 1 || succ[0] != "401005" {
		t.Fatalf("successors: %v", succ)
	}
	if !g.HasEdge("401005", ExitID) || g.HasEdge("401000", ExitID) {
		t.Fatal("HasEdge")
	}
	at := g.VerticesAt(0x401005)
	if len(at) != 1 || at[0].ID != "401005" {
		t.Fatalf("vertices at: %+v", at)
	}
}

// TestDump: the text hglift -dump prints for a graph (Marshal) names the
// function, each vertex with its invariant, each edge with its kind and
// instruction address, and each annotation, obligation and assumption.
func TestDump(t *testing.T) {
	g := sampleGraph()
	g.Vertices["401000"].State.Pred.SetReg(x86.RAX, expr.Word(7))
	g.Annotate(0x401010, AnnUnresolvedJump, "why")
	g.Obligations = append(g.Obligations, "@1 : f(...) MUST PRESERVE [...]")
	g.Assumptions = append(g.Assumptions, "@2 : ASSUMED SEPARATE")
	d := string(Marshal(g))
	for _, want := range []string{
		"hg 0x401000 f S_401000\n",
		"entry 401000\n",
		"vertex 401000 0x401000\n reg rax 0x7\n",
		"vertex 401005 0x401005\n",
		"vertex exit 0x0\n",
		"edge 401000 401005 0 0x401000 -\n",
		"edge 401005 exit 3 0x401005 -\n",
		"annotation 0x401010 0 why\n",
		"obligation @1 : f(...) MUST PRESERVE [...]\n",
		"assumption @2 : ASSUMED SEPARATE\n",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestAnnKindStrings(t *testing.T) {
	for _, k := range []AnnKind{AnnUnresolvedJump, AnnUnresolvedCall, AnnFetchError} {
		if k.String() == "" {
			t.Fatal("empty annotation kind")
		}
	}
}
