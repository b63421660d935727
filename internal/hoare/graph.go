// Package hoare defines the Hoare Graph of Definition 3.2: a transition
// system ⟨Σ, σI, →Σ⟩ whose vertices are symbolic states (predicate ×
// memory model) and whose edges are labelled with disassembled
// instructions. Every edge is one-step-inductive — a Hoare triple — which
// is what the independent checker of package triple re-verifies.
package hoare

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/sem"
	"repro/internal/x86"
)

// VertexID identifies a vertex. Vertices are keyed by instruction address
// plus a code-pointer signature (the compatibility extension of Section 4:
// states holding different code-pointer immediates are not joined).
type VertexID string

// The synthetic terminal vertices.
const (
	ExitID VertexID = "exit" // function returned to its symbolic return address
	HaltID VertexID = "halt" // execution terminated (hlt/ud2/exit-call)
)

// Vertex is one vertex: an invariant (symbolic state) at an address.
type Vertex struct {
	ID    VertexID
	Addr  uint64
	State *sem.State
	// Joins counts how many times the invariant was weakened by joining.
	Joins int
}

// Edge is one labelled transition. For terminal edges To is ExitID/HaltID.
// Addr names the instruction that labels it; the decoded instruction is
// the graph's Instrs[Addr], the only copy a graph keeps.
type Edge struct {
	From VertexID
	To   VertexID
	Addr uint64
	Kind sem.OutKind
	// Callee names the called function for call edges ("" otherwise).
	Callee string
}

// UnresolvedCallee is the Callee of the continuation edge of a call whose
// target did not evaluate to an address (column C of Table 1).
const UnresolvedCallee = "<unresolved>"

// AnnKind classifies unsoundness annotations (Line 13 of Algorithm 1).
type AnnKind uint8

// The annotation kinds reported in Table 1.
const (
	AnnUnresolvedJump AnnKind = iota // column B
	AnnUnresolvedCall                // column C
	AnnFetchError
)

// String renders the annotation kind.
func (k AnnKind) String() string {
	switch k {
	case AnnUnresolvedJump:
		return "unresolved-jump"
	case AnnUnresolvedCall:
		return "unresolved-call"
	default:
		return "fetch-error"
	}
}

// Annotation marks an instruction whose successors could not be bounded.
type Annotation struct {
	Addr uint64
	Kind AnnKind
	Text string
}

// Graph is the extracted Hoare graph of one function (or binary entry).
type Graph struct {
	FuncAddr uint64
	FuncName string
	// RetSym is the symbolic return address a_r pushed at entry.
	RetSym expr.Var
	// EntryID is σI's vertex.
	EntryID VertexID

	Vertices map[VertexID]*Vertex
	Edges    []Edge

	Annotations []Annotation
	// Obligations are the generated proof obligations over external
	// functions (Section 5.3).
	Obligations []string
	// Assumptions are the implicit separation assumptions (Section 5.2).
	Assumptions []string

	// Instrs is the recovered disassembly: every instruction lifted. It
	// is the only decoded copy a graph keeps; an Edge names its
	// instruction by address.
	Instrs map[uint64]x86.Inst

	// edgeSet holds the key of every edge once AddEdge has run: the
	// lifter's graphs have one, a decoded graph (whose record holds no
	// edge twice) has none until an edge is added to it.
	edgeSet map[edgeKey]struct{}
}

// edgeKey identifies an edge for AddEdge's deduplication: two edges with
// the same endpoints and instruction address are the same transition.
type edgeKey struct {
	From, To VertexID
	Addr     uint64
}

// NewGraph returns an empty graph for a function at addr.
func NewGraph(addr uint64, name string, retSym expr.Var) *Graph {
	return &Graph{
		FuncAddr: addr,
		FuncName: name,
		RetSym:   retSym,
		Vertices: map[VertexID]*Vertex{},
		Instrs:   map[uint64]x86.Inst{},
	}
}

// AddEdge inserts an edge if not already present. The first call on a
// graph builds the edge set from the edges it already holds.
func (g *Graph) AddEdge(e Edge) {
	if g.edgeSet == nil {
		g.edgeSet = make(map[edgeKey]struct{}, len(g.Edges))
		for _, old := range g.Edges {
			g.edgeSet[edgeKey{From: old.From, To: old.To, Addr: old.Addr}] = struct{}{}
		}
	}
	key := edgeKey{From: e.From, To: e.To, Addr: e.Addr}
	if _, ok := g.edgeSet[key]; ok {
		return
	}
	g.edgeSet[key] = struct{}{}
	g.Edges = append(g.Edges, e)
}

// Annotate records an unsoundness annotation.
func (g *Graph) Annotate(addr uint64, kind AnnKind, text string) {
	for _, a := range g.Annotations {
		if a.Addr == addr && a.Kind == kind {
			return
		}
	}
	g.Annotations = append(g.Annotations, Annotation{Addr: addr, Kind: kind, Text: text})
}

// Stats summarises a graph in the shape of Table 1's columns, plus the
// count of "weird" vertices — instruction addresses inside the interior of
// other lifted instructions (overlapping instructions, Section 2).
type Stats struct {
	Instructions   int
	States         int
	ResolvedInd    int // A
	UnresolvedJump int // B
	UnresolvedCall int // C
	Edges          int
	Obligations    int
	Assumptions    int
	WeirdVertices  int
	// Joins counts invariant weakenings: how many times some vertex's
	// state was joined with an incoming state during exploration.
	Joins int
}

// Stats computes the summary.
func (g *Graph) Stats() Stats {
	s := Stats{
		Instructions: len(g.Instrs),
		States:       len(g.Vertices),
		Edges:        len(g.Edges),
		Obligations:  len(g.Obligations),
		Assumptions:  len(g.Assumptions),
	}
	for _, v := range g.Vertices {
		s.Joins += v.Joins
	}
	for _, resolved := range g.Indirections() {
		if resolved {
			s.ResolvedInd++
		}
	}
	for _, a := range g.Annotations {
		switch a.Kind {
		case AnnUnresolvedJump:
			s.UnresolvedJump++
		case AnnUnresolvedCall:
			s.UnresolvedCall++
		}
	}
	for _, addr := range g.WeirdAddresses() {
		s.WeirdVertices += len(g.VerticesAt(addr))
	}
	return s
}

// Indirections maps every indirect jmp and call of the recovered
// disassembly (a target in a register or memory operand) to whether it is
// resolved, which is Table 1's column A: an edge leaves it that is not an
// unresolved call's continuation (Callee UnresolvedCallee). Read off the
// edges, it answers for a graph loaded from a file as for the lifted one.
// It differs from what the explorer saw in one case only: a failed lift
// whose fatal step was a resolved indirect call (the callee failed, or it
// is a concurrency function) stopped before adding that call's edge.
func (g *Graph) Indirections() map[uint64]bool {
	out := map[uint64]bool{}
	for a, inst := range g.Instrs {
		indirect := (inst.Mn == x86.JMP || inst.Mn == x86.CALL) &&
			len(inst.Ops) == 1 && inst.Ops[0].Kind != x86.OpImm
		if indirect {
			out[a] = false
		}
	}
	for _, e := range g.Edges {
		if _, ok := out[e.Addr]; ok && e.Callee != UnresolvedCallee {
			out[e.Addr] = true
		}
	}
	return out
}

// WeirdAddresses returns the lifted instruction addresses that lie
// strictly inside another lifted instruction — overlapping instructions,
// the hallmark of "weird" control flow (Section 2). One sweep in address
// order decides it: an address is inside some earlier instruction exactly
// when it lies below the furthest end of the instructions before it.
func (g *Graph) WeirdAddresses() []uint64 {
	var out []uint64
	var reach uint64 // furthest end of the instructions seen so far
	for _, a := range g.sortedAddrs() {
		if a < reach {
			out = append(out, a)
		}
		reach = max(reach, a+uint64(g.Instrs[a].Len))
	}
	return out
}

// Disasm renders the recovered disassembly in address order, one
// "0xADDR: instruction" line each — the paper's base question 1 ("what
// instructions are executed").
func (g *Graph) Disasm() []string {
	addrs := g.sortedAddrs()
	out := make([]string, len(addrs))
	for i, a := range addrs {
		inst := g.Instrs[a]
		out[i] = fmt.Sprintf("%#x: %s", a, inst.String())
	}
	return out
}

// sortedAddrs returns the lifted instruction addresses in ascending order.
func (g *Graph) sortedAddrs() []uint64 {
	addrs := make([]uint64, 0, len(g.Instrs))
	for a := range g.Instrs {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// Add accumulates another stats record (per-directory totals of Table 1).
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.States += o.States
	s.ResolvedInd += o.ResolvedInd
	s.UnresolvedJump += o.UnresolvedJump
	s.UnresolvedCall += o.UnresolvedCall
	s.Edges += o.Edges
	s.Obligations += o.Obligations
	s.Assumptions += o.Assumptions
	s.WeirdVertices += o.WeirdVertices
	s.Joins += o.Joins
}

// SortedVertices returns the vertices ordered by address then ID.
func (g *Graph) SortedVertices() []*Vertex {
	out := make([]*Vertex, 0, len(g.Vertices))
	for _, v := range g.Vertices {
		out = append(out, v)
	}
	slices.SortFunc(out, cmpVertices)
	return out
}

// cmpVertices orders vertices by address, then ID: a total order, since
// IDs are unique.
func cmpVertices(a, b *Vertex) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SortedEdges returns the edges ordered by instruction address, then
// target, then source.
func (g *Graph) SortedEdges() []Edge {
	out := slices.Clone(g.Edges)
	slices.SortFunc(out, cmpEdges)
	return out
}

// cmpEdges orders edges by instruction address, target and source. The
// order is total on the edges AddEdge keeps, which differ in one of the
// three. The address and target alone (cmpEdgeSites) are not: two
// code-pointer variants of one vertex can step to one target.
func cmpEdges(a, b Edge) int {
	if c := cmpEdgeSites(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.From, b.From)
}

// cmpEdgeSites orders edges by instruction address, then target.
func cmpEdgeSites(a, b Edge) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// Successors returns the target vertex IDs of edges leaving from, in ID
// order: the lifter adds edges in exploration order, a loaded graph holds
// them sorted, and both must answer alike.
func (g *Graph) Successors(from VertexID) []VertexID {
	var out []VertexID
	for _, e := range g.Edges {
		if e.From == from {
			out = append(out, e.To)
		}
	}
	slices.Sort(out)
	return out
}

// HasEdge reports whether an edge from→to exists.
func (g *Graph) HasEdge(from, to VertexID) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// VerticesAt returns the vertices whose address is addr (several when the
// code-pointer compatibility extension kept states apart).
func (g *Graph) VerticesAt(addr uint64) []*Vertex {
	var out []*Vertex
	for _, v := range g.Vertices {
		if v.Addr == addr && v.ID != ExitID && v.ID != HaltID {
			out = append(out, v)
		}
	}
	return out
}
