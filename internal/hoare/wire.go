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
// ranges, model; vertices and edges sorted — so Append∘Decode∘Append is
// the byte identity):
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
		buf = wire.AppendUvarint(buf, e.Inst.Addr)
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
// addresses only). Every index is bounds-checked, so a corrupt record is
// an error, never a panic; the decoded vertices share the record's trees
// and forests.
func DecodeWire(d *wire.Decoder, nodes []*expr.Expr, img *image.Image) (*Graph, error) {
	node := func(what string) *expr.Expr {
		i := d.Uvarint(what)
		if d.Err() != nil {
			return nil
		}
		if i >= uint64(len(nodes)) {
			d.Failf("%s expression index %d out of range (table has %d)", what, i, len(nodes))
			return nil
		}
		return nodes[i]
	}

	funcAddr := d.Uvarint("function address")
	funcName := d.String("function name")
	retSym := d.String("return symbol")
	entry := d.String("entry id")
	trees, sizes := decodeTrees(d, node)
	forests := decodeForests(d, trees, sizes)
	if d.Err() != nil {
		return nil, d.Err()
	}

	nVertices := d.Len("vertex")
	vertices := make([]*Vertex, 0, nVertices)
	for i := 0; i < nVertices && d.Err() == nil; i++ {
		id := VertexID(d.String("vertex id"))
		addr := d.Uvarint("vertex address")
		v := &Vertex{ID: id, Addr: addr}
		if d.Byte("vertex state flag") == 1 {
			v.State = sem.NewState()
			decodeState(d, v.State, node, forests)
		}
		if d.Err() == nil {
			vertices = append(vertices, v)
		}
	}
	nEdges := d.Len("edge")
	if d.Err() != nil {
		return nil, d.Err()
	}
	g := newGraphSized(funcAddr, funcName, expr.Var(retSym), len(vertices), nEdges)
	g.EntryID = VertexID(entry)
	for _, v := range vertices {
		g.Vertices[v.ID] = v
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
	for i := 0; i < nEdges && d.Err() == nil; i++ {
		from := ref("edge from", "edge from id")
		to := ref("edge to", "edge to id")
		kind := d.Uvarint("edge kind")
		addr := d.Uvarint("edge address")
		callee := d.String("edge callee")
		if d.Err() != nil {
			break
		}
		inst, ok := g.Instrs[addr]
		if !ok {
			var err error
			if inst, err = img.Fetch(addr); err != nil {
				d.Failf("edge instruction: %v", err)
				break
			}
			g.Instrs[addr] = inst
		}
		g.AddEdge(Edge{From: from, To: to, Inst: inst, Kind: sem.OutKind(kind), Callee: callee})
	}

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

// snapshotFlags returns the state's flag clauses, which SetCmp clears.
func snapshotFlags(st *sem.State) map[x86.Flag]*expr.Expr {
	out := map[x86.Flag]*expr.Expr{}
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		if e := st.Pred.Flag(f); e != nil {
			out[f] = e
		}
	}
	return out
}

// restoreFlags sets the flag clauses snapshotFlags returned.
func restoreFlags(st *sem.State, fl map[x86.Flag]*expr.Expr) {
	for f, e := range fl {
		st.Pred.SetFlag(f, e)
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

// decodeState reads one vertex state's clauses and names its forest.
func decodeState(d *wire.Decoder, st *sem.State, node func(string) *expr.Expr, forests []memmodel.Forest) {
	nRegs := d.Len("register clause")
	for i := 0; i < nRegs && d.Err() == nil; i++ {
		ri := d.Uvarint("register index")
		e := node("register value")
		if d.Err() != nil {
			return
		}
		if ri >= uint64(len(x86.GPRs)) {
			d.Failf("register index %d out of range", ri)
			return
		}
		st.Pred.SetReg(x86.GPRs[ri], e)
	}
	nFlags := d.Len("flag clause")
	for i := 0; i < nFlags && d.Err() == nil; i++ {
		f := d.Uvarint("flag")
		e := node("flag value")
		if d.Err() != nil {
			return
		}
		if f >= uint64(x86.NumFlags) {
			d.Failf("flag %d out of range", f)
			return
		}
		st.Pred.SetFlag(x86.Flag(f), e)
	}
	if d.Byte("cmp flag") == 1 {
		kind := d.Uvarint("cmp kind")
		size := d.Uvarint("cmp size")
		lhs := node("cmp lhs")
		rhs := node("cmp rhs")
		if d.Err() != nil {
			return
		}
		c := &pred.Cmp{Kind: pred.CmpKind(kind), Lhs: lhs, Rhs: rhs, Size: int(size)}
		// SetCmp clears the flag clauses; the record stores flags before
		// cmp (canonical clause order), so snapshot and restore them.
		flags := snapshotFlags(st)
		st.Pred.SetCmp(c)
		restoreFlags(st, flags)
	}
	// Clause lists are installed as decoded, in one pass: a list out of
	// canonical order, repeating a clause, or holding an interval clause
	// AddRange would not store as given is corrupt.
	nMems := d.Len("memory clause")
	mems := make([]pred.MemEntry, 0, nMems)
	for i := 0; i < nMems && d.Err() == nil; i++ {
		addr := node("memory address")
		size := d.Uvarint("memory size")
		val := node("memory value")
		if d.Err() != nil {
			return
		}
		mems = append(mems, pred.MemEntry{Addr: addr, Size: int(size), Val: val})
	}
	if err := st.Pred.SetMemClauses(mems); err != nil {
		d.Failf("%v", err)
		return
	}
	nRanges := d.Len("range clause")
	ranges := make([]pred.RangeClause, 0, nRanges)
	for i := 0; i < nRanges && d.Err() == nil; i++ {
		e := node("range expression")
		lo := d.Uint64("range lo")
		hi := d.Uint64("range hi")
		if d.Err() != nil {
			return
		}
		ranges = append(ranges, pred.RangeClause{E: e, R: pred.Range{Lo: lo, Hi: hi}})
	}
	if err := st.Pred.SetRangeClauses(ranges); err != nil {
		d.Failf("%v", err)
		return
	}
	fi := d.Uvarint("vertex forest index")
	if d.Err() != nil {
		return
	}
	if fi >= uint64(len(forests)) {
		d.Failf("forest index %d out of range (have %d forests)", fi, len(forests))
		return
	}
	st.Mem = forests[fi]
}
