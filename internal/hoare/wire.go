// This file implements the binary Hoare-graph record, the one form in
// which a graph is saved: the Hoare-graph store and the standalone graph
// file (internal/hgstore) both hold it. It carries the content the .hg
// text of serial.go renders, with every expression replaced by an index
// into a shared interned-expression table (expr.Table), so shared subterms
// are emitted once per container rather than re-rendered at every
// occurrence. Instructions are stored by address only and re-fetched from
// the binary image on decode, so a saved graph cannot silently drift from
// its binary.
//
// Record format (integers are uvarints; EXPR is a table index; clause
// order is canonical — registers in GPR order, then flags, cmp, memory,
// ranges, model; vertices sorted by address then ID, edges in SortedEdges
// order — so Append∘Decode∘Append is the byte identity):
//
//	graph  = funcaddr funcname retsym entry
//	         tree-count tree* forest-count forest*
//	         vertex-count vertex* edge-count edge*
//	         ann-count annotation* obl-count TEXT* asm-count TEXT*
//	tree   = region-count (EXPR size)* kid-count TREE*
//	forest = tree-count TREE*
//	vertex = id addr has-state state?
//	state  = reg-count   (gpr-index EXPR)*
//	         flag-count  (flag EXPR)*
//	         has-cmp     (cmp-kind size EXPR EXPR)?
//	         mem-count   (EXPR size EXPR)*
//	         range-count (EXPR lo64 hi64)*       lo/hi raw little-endian
//	         FOREST
//	edge   = VREF VREF out-kind addr callee
//
// TREE and FOREST index the graph's tree and forest tables. The lifter
// shares immutable memory trees between states, so a graph holds few
// distinct trees and forests but names them at every vertex: the record
// writes each structurally distinct tree once (a kid is always an earlier
// tree, so the table is in topological order) and each distinct forest
// once, and the decoder rebuilds one shared *memmodel.Tree per table entry
// and one Forest per forest entry. Two vertices whose forests
// memmodel.SameOrdered equates name the same forest. A decoded tree or
// forest may not expand to more nodes than the table has trees (a lifted
// tree holds each distinct subtree once), so a hostile record cannot make
// a walk of its forests blow up. Clause lists get no table: they are
// rarely shared (most vertices hold their own).
//
// VREF names an edge endpoint: index+1 into the vertex list, or 0 followed
// by the ID for an endpoint that is not a vertex (an abandoned lift leaves
// edges to vertices it never created).
//
// The decoder accepts only the canonical form: a memory or interval clause
// list, the vertex list or the edge list out of order or naming an item
// twice is an error, never a graph that merges the two. The one leeway is
// the order of sources among edges that share an instruction and a
// target, which builds whose SortedEdges did not break that tie wrote in
// insertion order; the decoder sorts such a run. It decodes a
// record in bulk: vertices, states, predicates, comparisons and clause
// lists are cut from a few per-record slabs (vertexDecoder), each clause
// list capped at its length, so a graph costs a few allocations besides
// its vertex IDs and instructions.
//
// The encoder's callers (hgstore) first collect every expression of the
// graphs a container holds into one expr.Table via CollectWireExprs,
// append the table once, then append each graph record against it.

package hoare

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/wire"
	"repro/internal/x86"
)

// CollectWireExprs adds every expression reachable from the graph's vertex
// invariants (equality, flag, comparison, memory and interval clauses, and
// memory-model regions) to the table, in the canonical clause order, so
// the table layout is deterministic in the graph.
func CollectWireExprs(t *expr.Table, g *Graph) {
	for _, v := range g.SortedVertices() {
		if v.State == nil {
			continue
		}
		p := v.State.Pred
		for _, r := range x86.GPRs {
			if e := p.Reg(r); e != nil {
				t.Add(e)
			}
		}
		for f := x86.Flag(0); f < x86.NumFlags; f++ {
			if e := p.Flag(f); e != nil {
				t.Add(e)
			}
		}
		if c := p.LastCmp(); c != nil {
			t.Add(c.Lhs)
			t.Add(c.Rhs)
		}
		p.MemEntries(func(e pred.MemEntry) {
			t.Add(e.Addr)
			t.Add(e.Val)
		})
		p.Ranges(func(e *expr.Expr, r pred.Range) {
			t.Add(e)
		})
		collectForest(t, v.State.Mem)
	}
}

func collectForest(t *expr.Table, f memmodel.Forest) {
	for _, tree := range f {
		for _, r := range tree.Regions {
			t.Add(r.Addr)
		}
		collectForest(t, tree.Kids)
	}
}

// AppendWire appends the graph's binary record to buf. Every expression of
// the graph must already be in the table (see CollectWireExprs).
func AppendWire(buf []byte, t *expr.Table, g *Graph) []byte {
	idx := func(e *expr.Expr) uint64 { return uint64(t.Index(e)) }
	vertices := g.SortedVertices()
	models := newModelTable(t)
	forestOf := make([]uint64, len(vertices))
	ref := make(map[VertexID]uint64, len(vertices))
	for i, v := range vertices {
		ref[v.ID] = uint64(i) + 1
		if v.State != nil {
			forestOf[i] = models.forest(v.State.Mem)
		}
	}

	buf = wire.AppendUvarint(buf, g.FuncAddr)
	buf = wire.AppendString(buf, g.FuncName)
	buf = wire.AppendString(buf, string(g.RetSym))
	buf = wire.AppendString(buf, string(g.EntryID))
	buf = wire.AppendUvarint(buf, uint64(len(models.trees.index)))
	buf = append(buf, models.trees.bytes...)
	buf = wire.AppendUvarint(buf, uint64(len(models.forests.index)))
	buf = append(buf, models.forests.bytes...)

	buf = wire.AppendUvarint(buf, uint64(len(vertices)))
	for i, v := range vertices {
		buf = wire.AppendString(buf, string(v.ID))
		buf = wire.AppendUvarint(buf, v.Addr)
		if v.State == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		p := v.State.Pred

		var regs []uint64
		for ri, r := range x86.GPRs {
			if e := p.Reg(r); e != nil {
				regs = append(regs, uint64(ri), idx(e))
			}
		}
		buf = wire.AppendUvarint(buf, uint64(len(regs)/2))
		for _, u := range regs {
			buf = wire.AppendUvarint(buf, u)
		}

		var flags []uint64
		for f := x86.Flag(0); f < x86.NumFlags; f++ {
			if e := p.Flag(f); e != nil {
				flags = append(flags, uint64(f), idx(e))
			}
		}
		buf = wire.AppendUvarint(buf, uint64(len(flags)/2))
		for _, u := range flags {
			buf = wire.AppendUvarint(buf, u)
		}

		if c := p.LastCmp(); c != nil {
			buf = append(buf, 1)
			buf = wire.AppendUvarint(buf, uint64(c.Kind))
			buf = wire.AppendUvarint(buf, uint64(c.Size))
			buf = wire.AppendUvarint(buf, idx(c.Lhs))
			buf = wire.AppendUvarint(buf, idx(c.Rhs))
		} else {
			buf = append(buf, 0)
		}

		var mems []pred.MemEntry
		p.MemEntries(func(e pred.MemEntry) { mems = append(mems, e) })
		buf = wire.AppendUvarint(buf, uint64(len(mems)))
		for _, e := range mems {
			buf = wire.AppendUvarint(buf, idx(e.Addr))
			buf = wire.AppendUvarint(buf, uint64(e.Size))
			buf = wire.AppendUvarint(buf, idx(e.Val))
		}

		type rangeClause struct {
			e *expr.Expr
			r pred.Range
		}
		var ranges []rangeClause
		p.Ranges(func(e *expr.Expr, r pred.Range) { ranges = append(ranges, rangeClause{e, r}) })
		buf = wire.AppendUvarint(buf, uint64(len(ranges)))
		for _, rc := range ranges {
			buf = wire.AppendUvarint(buf, idx(rc.e))
			buf = wire.AppendUint64(buf, rc.r.Lo)
			buf = wire.AppendUint64(buf, rc.r.Hi)
		}

		buf = wire.AppendUvarint(buf, forestOf[i])
	}

	appendRef := func(buf []byte, id VertexID) []byte {
		if r, ok := ref[id]; ok {
			return wire.AppendUvarint(buf, r)
		}
		buf = append(buf, 0)
		return wire.AppendString(buf, string(id))
	}
	edges := g.SortedEdges()
	buf = wire.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = appendRef(buf, e.From)
		buf = appendRef(buf, e.To)
		buf = wire.AppendUvarint(buf, uint64(e.Kind))
		buf = wire.AppendUvarint(buf, e.Addr)
		buf = wire.AppendString(buf, e.Callee)
	}

	buf = wire.AppendUvarint(buf, uint64(len(g.Annotations)))
	for _, a := range g.Annotations {
		buf = wire.AppendUvarint(buf, a.Addr)
		buf = wire.AppendUvarint(buf, uint64(a.Kind))
		buf = wire.AppendString(buf, a.Text)
	}
	buf = wire.AppendUvarint(buf, uint64(len(g.Obligations)))
	for _, o := range g.Obligations {
		buf = wire.AppendString(buf, o)
	}
	buf = wire.AppendUvarint(buf, uint64(len(g.Assumptions)))
	for _, a := range g.Assumptions {
		buf = wire.AppendString(buf, a)
	}
	return buf
}

// modelTable numbers the distinct memory trees and forests of one graph
// and accumulates their encoded table entries. An entry names regions by
// expression index and kids or trees by tree index, so its bytes are its
// structural key: structurally equal trees, and forests
// memmodel.SameOrdered equates, encode to the same entry. A tree met
// before as the same pointer costs one map probe.
type modelTable struct {
	t       *expr.Table
	treeOf  map[*memmodel.Tree]uint64
	trees   entryTable
	forests entryTable
}

func newModelTable(t *expr.Table) *modelTable {
	return &modelTable{
		t:       t,
		treeOf:  map[*memmodel.Tree]uint64{},
		trees:   entryTable{index: map[string]uint64{}},
		forests: entryTable{index: map[string]uint64{}},
	}
}

// tree returns the table index of t, adding its kids first, then t.
func (m *modelTable) tree(t *memmodel.Tree) uint64 {
	if i, ok := m.treeOf[t]; ok {
		return i
	}
	b := wire.AppendUvarint(nil, uint64(len(t.Regions)))
	for _, r := range t.Regions {
		b = wire.AppendUvarint(b, uint64(m.t.Index(r.Addr)))
		b = wire.AppendUvarint(b, r.Size)
	}
	i := m.trees.add(m.appendTrees(b, t.Kids))
	m.treeOf[t] = i
	return i
}

// forest returns the table index of f, adding its trees first.
func (m *modelTable) forest(f memmodel.Forest) uint64 {
	return m.forests.add(m.appendTrees(nil, f))
}

// appendTrees appends f as a counted list of tree indices.
func (m *modelTable) appendTrees(b []byte, f memmodel.Forest) []byte {
	b = wire.AppendUvarint(b, uint64(len(f)))
	for _, t := range f {
		b = wire.AppendUvarint(b, m.tree(t))
	}
	return b
}

// entryTable numbers distinct encoded table entries in order of first
// sight and keeps their bytes.
type entryTable struct {
	index map[string]uint64
	bytes []byte
}

// add returns the index of entry b, appending it if it is new.
func (e *entryTable) add(b []byte) uint64 {
	i, ok := e.index[string(b)]
	if !ok {
		i = uint64(len(e.index))
		e.index[string(b)] = i
		e.bytes = append(e.bytes, b...)
	}
	return i
}

// DecodeWire decodes one binary graph record from the cursor against the
// decoded expression table, re-fetching from the image the instruction of
// every edge and of every vertex with a state (the record stores
// addresses only), once per address. Every index is bounds-checked and
// the vertex and edge lists must be in canonical order, so a corrupt or
// non-canonical record is an error, never a panic or a silently merged
// vertex or edge. The decoded vertices share the record's trees and
// forests, and are cut from a few per-record slabs (vertexDecoder).
func DecodeWire(d *wire.Decoder, nodes []*expr.Expr, img *image.Image) (*Graph, error) {
	vd := &vertexDecoder{d: d, nodes: nodes}
	funcAddr := d.Uvarint("function address")
	funcName := d.String("function name")
	retSym := d.String("return symbol")
	entry := d.String("entry id")
	trees, sizes := decodeTrees(d, vd.node)
	vd.forests = decodeForests(d, trees, sizes)
	if d.Err() != nil {
		return nil, d.Err()
	}

	nVertices := d.Len("vertex")
	vertices := make([]*Vertex, 0, room(d, nVertices, minVertexBytes))
	for i := 0; i < nVertices && d.Err() == nil; i++ {
		vd.left = nVertices - i
		v := vd.vertex()
		if d.Err() != nil {
			break
		}
		if n := len(vertices); n > 0 && cmpVertices(vertices[n-1], v) >= 0 {
			d.Failf("vertex %s at %#x out of canonical order after %s at %#x",
				v.ID, v.Addr, vertices[n-1].ID, vertices[n-1].Addr)
			break
		}
		vertices = append(vertices, v)
	}
	byID := make(map[VertexID]*Vertex, len(vertices))
	for i, v := range vertices {
		if byID[v.ID] = v; len(byID) <= i {
			d.Failf("vertex %s named twice", v.ID)
			break
		}
	}
	nEdges := d.Len("edge")
	if d.Err() != nil {
		return nil, d.Err()
	}
	edgeRoom := room(d, nEdges, minEdgeBytes)
	g := &Graph{
		FuncAddr: funcAddr,
		FuncName: funcName,
		RetSym:   expr.Var(retSym),
		EntryID:  VertexID(entry),
		Vertices: byID,
		Instrs:   make(map[uint64]x86.Inst, edgeRoom),
	}
	if edgeRoom > 0 {
		g.Edges = make([]Edge, 0, edgeRoom)
	}

	// ref reads an edge endpoint; idWhat names the endpoint's ID when it is
	// not a vertex of the record ("edge from id" for "edge from").
	ref := func(what, idWhat string) VertexID {
		i := d.Uvarint(what)
		if d.Err() != nil {
			return ""
		}
		if i == 0 {
			id := VertexID(d.String(idWhat))
			if _, ok := g.Vertices[id]; ok && d.Err() == nil {
				d.Failf("%s %q is a vertex but is not named by index", what, id)
			}
			return id
		}
		if i > uint64(len(vertices)) {
			d.Failf("%s vertex index %d out of range (have %d vertices)", what, i-1, len(vertices))
			return ""
		}
		return vertices[i-1].ID
	}
	// Edges are appended in record order, which must be SortedEdges order
	// up to the sources of a run of edges that share an instruction and a
	// target (cmpEdgeSites): builds whose SortedEdges did not break that
	// tie wrote a run in insertion order. Each run is put in source order
	// when it ends and may not name a source twice (sortEdgeRun), so no
	// edge repeats. The edges of one instruction are adjacent and share
	// one fetch of it.
	run := 0 // index of the first edge of the current run
	for i := 0; i < nEdges && d.Err() == nil; i++ {
		from := ref("edge from", "edge from id")
		to := ref("edge to", "edge to id")
		kind := d.Uvarint("edge kind")
		addr := d.Uvarint("edge address")
		callee := d.String("edge callee")
		if d.Err() != nil {
			break
		}
		e := Edge{From: from, To: to, Addr: addr, Kind: sem.OutKind(kind), Callee: callee}
		n := len(g.Edges)
		if n > 0 {
			c := cmpEdgeSites(g.Edges[n-1], e)
			if c > 0 {
				d.Failf("edge %s -> %s at %#x out of canonical order", from, to, addr)
				break
			}
			if c < 0 {
				sortEdgeRun(d, g.Edges[run:])
				if d.Err() != nil {
					break
				}
				run = n
			}
		}
		if n == 0 || g.Edges[n-1].Addr != addr {
			inst, err := img.Fetch(addr)
			if err != nil {
				d.Failf("edge instruction: %v", err)
				break
			}
			g.Instrs[addr] = inst
		}
		g.Edges = append(g.Edges, e)
	}
	sortEdgeRun(d, g.Edges[run:])

	nAnns := d.Len("annotation")
	for i := 0; i < nAnns && d.Err() == nil; i++ {
		addr := d.Uvarint("annotation address")
		kind := d.Uvarint("annotation kind")
		text := d.String("annotation text")
		if d.Err() == nil {
			g.Annotate(addr, AnnKind(kind), text)
		}
	}
	nObl := d.Len("obligation")
	for i := 0; i < nObl && d.Err() == nil; i++ {
		g.Obligations = append(g.Obligations, d.String("obligation"))
	}
	nAsm := d.Len("assumption")
	for i := 0; i < nAsm && d.Err() == nil; i++ {
		g.Assumptions = append(g.Assumptions, d.String("assumption"))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if g.EntryID == "" {
		d.Failf("graph has no entry vertex")
		return nil, d.Err()
	}
	// The lifter fetches a vertex's instruction in the step that creates
	// the vertex, so every vertex with a state has its instruction in
	// Instrs, edges or not (a failed lift's fatal step leaves none), unless
	// that fetch failed, which it annotates at the address.
	for _, v := range vertices {
		if _, ok := g.Instrs[v.Addr]; ok || v.State == nil {
			continue
		}
		inst, err := img.Fetch(v.Addr)
		if err != nil {
			if !slices.ContainsFunc(g.Annotations, func(a Annotation) bool {
				return a.Addr == v.Addr && a.Kind == AnnFetchError
			}) {
				d.Failf("vertex %s instruction: %v", v.ID, err)
				return nil, d.Err()
			}
			continue
		}
		g.Instrs[v.Addr] = inst
	}
	return g, nil
}

// sortEdgeRun puts a run of decoded edges that share an instruction and a
// target in source order, and fails the decode if two of them share a
// source too: the record names that edge twice. A record in canonical
// order holds the run sorted already.
func sortEdgeRun(d *wire.Decoder, run []Edge) {
	if len(run) < 2 || d.Err() != nil {
		return
	}
	slices.SortFunc(run, cmpEdges)
	for i := 1; i < len(run); i++ {
		if e := run[i]; e.From == run[i-1].From {
			d.Failf("edge %s -> %s at %#x named twice", e.From, e.To, e.Addr)
			return
		}
	}
}

// decodeTrees reads the tree table. A kid must name an earlier tree, so
// every tree is built from finished kids and the table cannot hold a
// cycle. It also returns each tree's expanded size (its nodes, counting
// every kid's subtree), which may not exceed the number of trees up to
// and including it: a lifted tree holds each distinct subtree once (two
// copies would put one region in two places), while a record that names
// one earlier tree twice per level would make every walk of the decoded
// forests exponential in the record's size. Empty lists decode as nil.
func decodeTrees(d *wire.Decoder, node func(string) *expr.Expr) ([]*memmodel.Tree, []int) {
	n := d.Len("memory-model tree")
	trees := make([]*memmodel.Tree, 0, n)
	sizes := make([]int, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		t := &memmodel.Tree{}
		if nRegions := d.Len("memory-model region"); nRegions > 0 {
			t.Regions = make([]solver.Region, 0, nRegions)
			for j := 0; j < nRegions && d.Err() == nil; j++ {
				addr := node("region address")
				size := d.Uvarint("region size")
				t.Regions = append(t.Regions, solver.Region{Addr: addr, Size: size})
			}
		}
		var size int
		t.Kids, size = decodeIndexed(d, "memory-model subtree", trees, sizes)
		if size++; size > i+1 {
			d.Failf("memory-model tree %d expands to %d nodes, more than the %d trees it may hold", i, size, i+1)
		}
		trees = append(trees, t)
		sizes = append(sizes, size)
	}
	return trees, sizes
}

// decodeForests reads the forest table against the decoded trees. A
// forest, too, may not expand to more nodes than the table has trees.
func decodeForests(d *wire.Decoder, trees []*memmodel.Tree, sizes []int) []memmodel.Forest {
	n := d.Len("memory-model forest")
	forests := make([]memmodel.Forest, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		f, size := decodeIndexed(d, "forest tree", trees, sizes)
		if size > len(trees) {
			d.Failf("memory-model forest %d expands to %d nodes, more than the %d trees", i, size, len(trees))
		}
		forests = append(forests, f)
	}
	return forests
}

// decodeIndexed reads a counted list of indices into trees, failing on
// an index past the end (for a tree's kids, trees holds only the trees
// before it), and returns the forest with its expanded size.
func decodeIndexed(d *wire.Decoder, what string, trees []*memmodel.Tree, sizes []int) (memmodel.Forest, int) {
	n := d.Len(what)
	if n == 0 {
		return nil, 0
	}
	f := make(memmodel.Forest, 0, n)
	size := 0
	for j := 0; j < n && d.Err() == nil; j++ {
		i := d.UvarintOf(what, "index")
		if d.Err() != nil {
			break
		}
		if i >= uint64(len(trees)) {
			d.Failf("%s index %d out of range (have %d earlier trees)", what, i, len(trees))
			break
		}
		f = append(f, trees[i])
		size += sizes[i]
	}
	return f, size
}

// vertexDecoder decodes the vertex list of one record. It cuts every
// vertex, state, predicate, comparison and clause list from a slab, so a
// list of any length costs a few allocations in all rather than several
// per vertex; a zero pred.Pred is ⊤.
type vertexDecoder struct {
	d       *wire.Decoder
	nodes   []*expr.Expr
	forests []memmodel.Forest
	left    int // vertices still to decode, the current one included
	nStates int // vertex states decoded so far

	vertices slab[Vertex]
	states   slab[sem.State]
	preds    slab[pred.Pred]
	cmps     slab[pred.Cmp]
	mems     slab[pred.MemEntry]
	ranges   slab[pred.RangeClause]
}

// The fewest record bytes that encode one vertex (ID length, address and
// state flag), the rest of one state (clause counts, cmp flag and forest
// index), one comparison, one memory clause, one interval clause and one
// edge (endpoints, kind, address and callee length). They bound what the
// decoder sets aside for the rest of the record, so that a count in a
// hostile record cannot make it allocate more per input byte than the
// items it claims would.
const (
	minVertexBytes = 3
	minStateBytes  = 6
	minCmpBytes    = 4
	minMemBytes    = 3
	minRangeBytes  = 17
	minEdgeBytes   = 5
)

// room returns how many of n items the rest of the record can encode at
// minBytes each: what the decoder may set aside for them.
func room(d *wire.Decoder, n, minBytes int) int {
	return min(n, len(d.Rest())/minBytes)
}

// cut takes n elements from s for the current vertex. When s's array is
// used up, the next one holds what the vertices left need at the rate per
// state so far (at the first, n per vertex), but no more than the rest of
// the record can encode at minBytes each.
func cut[T any](vd *vertexDecoder, s *slab[T], n, minBytes int) []T {
	if n > len(s.free) {
		want := n * vd.left
		if vd.nStates > 0 {
			want = s.taken * vd.left / vd.nStates
		}
		s.grow(max(n, room(vd.d, want, minBytes)))
	}
	return s.take(n)
}

// slab hands out runs of elements cut from shared backing arrays. A run's
// capacity is its length, so an append to one copies it instead of
// writing into the next run; pred never appends to a clause list a
// predicate holds, and a decoded graph's lists stay apart.
type slab[T any] struct {
	free  []T // the unused tail of the current array
	taken int // elements handed out so far
}

// grow starts a new array of at least n elements; it keeps whatever room
// the allocation's size class gives beyond n.
func (s *slab[T]) grow(n int) {
	s.free = slices.Grow([]T(nil), n)
	s.free = s.free[:cap(s.free)]
}

// take returns the next n elements (nil for none).
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	s.taken += n
	return run
}

// node reads an expression table index.
func (vd *vertexDecoder) node(what string) *expr.Expr {
	d := vd.d
	i := d.Uvarint(what)
	if d.Err() != nil {
		return nil
	}
	if i >= uint64(len(vd.nodes)) {
		d.Failf("%s expression index %d out of range (table has %d)", what, i, len(vd.nodes))
		return nil
	}
	return vd.nodes[i]
}

// vertex reads one vertex.
func (vd *vertexDecoder) vertex() *Vertex {
	d := vd.d
	v := &cut(vd, &vd.vertices, 1, minVertexBytes)[0]
	v.ID = VertexID(d.String("vertex id"))
	v.Addr = d.Uvarint("vertex address")
	if d.Byte("vertex state flag") == 1 && d.Err() == nil {
		st := &cut(vd, &vd.states, 1, minStateBytes)[0]
		st.Pred = &cut(vd, &vd.preds, 1, minStateBytes)[0]
		vd.state(st)
		vd.nStates++
		v.State = st
	}
	return v
}

// state reads one vertex state's clauses and names its forest.
func (vd *vertexDecoder) state(st *sem.State) {
	d, p := vd.d, st.Pred
	nRegs := d.Len("register clause")
	for i := 0; i < nRegs && d.Err() == nil; i++ {
		ri := d.Uvarint("register index")
		e := vd.node("register value")
		if d.Err() != nil {
			return
		}
		if ri >= uint64(len(x86.GPRs)) {
			d.Failf("register index %d out of range", ri)
			return
		}
		p.SetReg(x86.GPRs[ri], e)
	}
	// The record stores flags before the comparison (canonical clause
	// order), and SetCmp clears the flags, so they are set after it.
	var flags [x86.NumFlags]*expr.Expr
	nFlags := d.Len("flag clause")
	for i := 0; i < nFlags && d.Err() == nil; i++ {
		f := d.Uvarint("flag")
		e := vd.node("flag value")
		if d.Err() != nil {
			return
		}
		if f >= uint64(x86.NumFlags) {
			d.Failf("flag %d out of range", f)
			return
		}
		flags[f] = e
	}
	if d.Byte("cmp flag") == 1 {
		c := &cut(vd, &vd.cmps, 1, minCmpBytes)[0]
		c.Kind = pred.CmpKind(d.Uvarint("cmp kind"))
		c.Size = int(d.Uvarint("cmp size"))
		c.Lhs = vd.node("cmp lhs")
		c.Rhs = vd.node("cmp rhs")
		if d.Err() != nil {
			return
		}
		p.SetCmp(c)
	}
	for f, e := range flags {
		if e != nil {
			p.SetFlag(x86.Flag(f), e)
		}
	}
	// Clause lists are installed as decoded, in one pass: a list out of
	// canonical order, repeating a clause, or holding an interval clause
	// AddRange would not store as given is corrupt.
	mems := cut(vd, &vd.mems, d.Len("memory clause"), minMemBytes)
	for i := range mems {
		addr := vd.node("memory address")
		size := d.Uvarint("memory size")
		val := vd.node("memory value")
		if d.Err() != nil {
			return
		}
		mems[i] = pred.MemEntry{Addr: addr, Size: int(size), Val: val}
	}
	if err := p.SetMemClauses(mems); err != nil {
		d.Failf("%v", err)
		return
	}
	ranges := cut(vd, &vd.ranges, d.Len("range clause"), minRangeBytes)
	for i := range ranges {
		e := vd.node("range expression")
		lo := d.Uint64("range lo")
		hi := d.Uint64("range hi")
		if d.Err() != nil {
			return
		}
		ranges[i] = pred.RangeClause{E: e, R: pred.Range{Lo: lo, Hi: hi}}
	}
	if err := p.SetRangeClauses(ranges); err != nil {
		d.Failf("%v", err)
		return
	}
	fi := d.Uvarint("vertex forest index")
	if d.Err() != nil {
		return
	}
	if fi >= uint64(len(vd.forests)) {
		d.Failf("forest index %d out of range (have %d forests)", fi, len(vd.forests))
		return
	}
	st.Mem = vd.forests[fi]
}
