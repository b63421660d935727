// This file implements the .hg interchange format: Marshal writes a Hoare
// graph as line-oriented text, Load reads it back against the binary image
// it was extracted from (instructions are stored by address only and
// re-fetched, so a .hg file cannot silently drift from its binary).
//
// Grammar (one record per line; indented lines are clauses of the most
// recent vertex; blank lines are ignored; EXPR is the canonical expression
// syntax of expr.Parse, e.g. "add(rsp0,0xfffffffffffffff8)"):
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
// separation only because the assumption line lists it:
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
// cmp, memory, ranges, model), so Marshal∘Load∘Marshal is the identity on
// the textual form.

package hoare

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/x86"
)

// Marshal serialises the graph to the .hg text format: a line-oriented,
// machine-readable encoding of every vertex invariant (register, flag,
// comparison, memory and interval clauses in canonical expression syntax),
// the memory models, the labelled edges, annotations, obligations and
// assumptions. Instructions are stored by address and length only; Load
// re-fetches them from the binary, keeping the file self-checking against
// the image it is loaded with.
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
		fmt.Fprintf(&b, "edge %s %s %d %#x %s\n", e.From, e.To, e.Kind, e.Inst.Addr, callee)
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

// Load parses a .hg file produced by Marshal, re-fetching every edge's
// instruction from the image.
func Load(img *image.Image, data []byte) (*Graph, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *Graph
	var cur *Vertex
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		indent := strings.HasPrefix(line, " ")
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("hg: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if g == nil {
			if fields[0] != "hg" || len(fields) != 4 {
				return nil, fail("missing hg header")
			}
			addr, err := strconv.ParseUint(fields[1], 0, 64)
			if err != nil {
				return nil, fail("bad address: %v", err)
			}
			g = NewGraph(addr, fields[2], expr.Var(fields[3]))
			continue
		}
		if indent {
			if cur == nil || cur.State == nil {
				return nil, fail("clause outside a vertex")
			}
			if err := loadClause(cur.State, fields); err != nil {
				return nil, fail("%v", err)
			}
			continue
		}
		switch fields[0] {
		case "entry":
			if len(fields) < 2 {
				return nil, fail("short entry")
			}
			g.EntryID = VertexID(fields[1])
		case "vertex":
			if len(fields) < 3 {
				return nil, fail("short vertex")
			}
			addr, err := strconv.ParseUint(fields[2], 0, 64)
			if err != nil {
				return nil, fail("bad vertex address: %v", err)
			}
			id := VertexID(fields[1])
			cur = &Vertex{ID: id, Addr: addr}
			if id != ExitID && id != HaltID {
				cur.State = sem.NewState()
			}
			g.Vertices[id] = cur
		case "edge":
			if len(fields) < 6 {
				return nil, fail("short edge")
			}
			kind, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fail("bad edge kind: %v", err)
			}
			addr, err := strconv.ParseUint(fields[4], 0, 64)
			if err != nil {
				return nil, fail("bad edge address: %v", err)
			}
			inst, err := img.Fetch(addr)
			if err != nil {
				return nil, fail("edge instruction: %v", err)
			}
			g.Instrs[addr] = inst
			callee := fields[5]
			if callee == "-" {
				callee = ""
			}
			g.AddEdge(Edge{From: VertexID(fields[1]), To: VertexID(fields[2]),
				Inst: inst, Kind: sem.OutKind(kind), Callee: callee})
		case "annotation":
			if len(fields) < 3 {
				return nil, fail("short annotation")
			}
			addr, err := strconv.ParseUint(fields[1], 0, 64)
			if err != nil {
				return nil, fail("bad annotation address: %v", err)
			}
			kind, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fail("bad annotation kind: %v", err)
			}
			g.Annotate(addr, AnnKind(kind), strings.Join(fields[3:], " "))
		case "obligation":
			g.Obligations = append(g.Obligations, strings.Join(fields[1:], " "))
		case "assumption":
			g.Assumptions = append(g.Assumptions, strings.Join(fields[1:], " "))
		default:
			return nil, fail("unknown record %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("hg: empty input")
	}
	if g.EntryID == "" {
		return nil, fmt.Errorf("hg: no entry record")
	}
	return g, nil
}

// clauseArity gives the minimum field count per clause record.
var clauseArity = map[string]int{
	"reg": 3, "flag": 3, "cmp": 5, "mem": 4, "range": 4, "model": 1,
}

// loadClause parses one indented clause line into a vertex state.
func loadClause(st *sem.State, fields []string) error {
	if need, ok := clauseArity[fields[0]]; !ok || len(fields) < need {
		return fmt.Errorf("short or unknown clause %q", strings.Join(fields, " "))
	}
	switch fields[0] {
	case "reg":
		r, ok := regByName(fields[1])
		if !ok {
			return fmt.Errorf("unknown register %q", fields[1])
		}
		e, err := expr.Parse(fields[2])
		if err != nil {
			return err
		}
		st.Pred.SetReg(r, e)
	case "flag":
		f, ok := flagByName(fields[1])
		if !ok {
			return fmt.Errorf("unknown flag %q", fields[1])
		}
		e, err := expr.Parse(fields[2])
		if err != nil {
			return err
		}
		st.Pred.SetFlag(f, e)
	case "cmp":
		size, err := strconv.Atoi(fields[2])
		if err != nil {
			return err
		}
		lhs, err := expr.Parse(fields[3])
		if err != nil {
			return err
		}
		rhs, err := expr.Parse(fields[4])
		if err != nil {
			return err
		}
		kind := pred.CmpSub
		if fields[1] == "and" {
			kind = pred.CmpAnd
		}
		c := &pred.Cmp{Kind: kind, Lhs: lhs, Rhs: rhs, Size: size}
		// SetCmp clears flags; restore order by setting cmp before flags
		// would be wrong — instead install without clearing.
		flags := snapshotFlags(st)
		st.Pred.SetCmp(c)
		restoreFlags(st, flags)
	case "mem":
		addr, err := expr.Parse(fields[1])
		if err != nil {
			return err
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil {
			return err
		}
		val, err := expr.Parse(fields[3])
		if err != nil {
			return err
		}
		st.Pred.WriteMem(addr, size, val)
	case "range":
		e, err := expr.Parse(fields[1])
		if err != nil {
			return err
		}
		lo, err := strconv.ParseUint(fields[2], 0, 64)
		if err != nil {
			return err
		}
		hi, err := strconv.ParseUint(fields[3], 0, 64)
		if err != nil {
			return err
		}
		st.Pred.AddRange(e, pred.Range{Lo: lo, Hi: hi})
	case "model":
		f, err := parseForest(strings.Join(fields[1:], " "))
		if err != nil {
			return err
		}
		st.Mem = f
	default:
		return fmt.Errorf("unknown clause %q", fields[0])
	}
	return nil
}

func snapshotFlags(st *sem.State) map[x86.Flag]*expr.Expr {
	out := map[x86.Flag]*expr.Expr{}
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		if e := st.Pred.Flag(f); e != nil {
			out[f] = e
		}
	}
	return out
}

func restoreFlags(st *sem.State, fl map[x86.Flag]*expr.Expr) {
	for f, e := range fl {
		st.Pred.SetFlag(f, e)
	}
}

func regByName(name string) (x86.Reg, bool) {
	for _, r := range x86.GPRs {
		if r.String() == name {
			return r, true
		}
	}
	return 0, false
}

func flagByName(name string) (x86.Flag, bool) {
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}

// parseForest parses the nested-parentheses model encoding.
func parseForest(s string) (memmodel.Forest, error) {
	p := &forestParser{s: s}
	f, err := p.forest()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("model: trailing input %q", p.s[p.pos:])
	}
	return f, nil
}

type forestParser struct {
	s   string
	pos int
}

func (p *forestParser) skip() {
	for p.pos < len(p.s) && p.s[p.pos] == ' ' {
		p.pos++
	}
}

func (p *forestParser) forest() (memmodel.Forest, error) {
	var out memmodel.Forest
	for {
		p.skip()
		if p.pos >= len(p.s) || p.s[p.pos] != '(' {
			return out, nil
		}
		t, err := p.tree()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

func (p *forestParser) tree() (*memmodel.Tree, error) {
	p.pos++ // (
	t := &memmodel.Tree{}
	for {
		p.skip()
		if p.pos >= len(p.s) {
			return nil, fmt.Errorf("model: unterminated tree")
		}
		if p.s[p.pos] == '(' {
			kids, err := p.kids()
			if err != nil {
				return nil, err
			}
			t.Kids = kids
			p.skip()
			if p.pos >= len(p.s) || p.s[p.pos] != ')' {
				return nil, fmt.Errorf("model: missing tree close")
			}
			p.pos++
			return t, nil
		}
		// region: key#size — expression keys contain balanced parentheses
		// and no spaces, so scan with a depth counter.
		start := p.pos
		depth := 0
		for p.pos < len(p.s) {
			switch p.s[p.pos] {
			case '(':
				depth++
			case ')':
				if depth == 0 {
					goto tokEnd
				}
				depth--
			case ' ':
				if depth == 0 {
					goto tokEnd
				}
			}
			p.pos++
		}
	tokEnd:
		tok := p.s[start:p.pos]
		hash := strings.LastIndexByte(tok, '#')
		if hash < 0 {
			return nil, fmt.Errorf("model: bad region %q", tok)
		}
		addr, err := expr.Parse(tok[:hash])
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseUint(tok[hash+1:], 10, 64)
		if err != nil {
			return nil, err
		}
		t.Regions = append(t.Regions, solver.Region{Addr: addr, Size: size})
	}
}

func (p *forestParser) kids() (memmodel.Forest, error) {
	p.pos++ // (
	f, err := p.forest()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos >= len(p.s) || p.s[p.pos] != ')' {
		return nil, fmt.Errorf("model: missing kids close")
	}
	p.pos++
	return f, nil
}
