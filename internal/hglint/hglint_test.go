package hglint

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/x86"
)

// liftScenario lifts one named corpus scenario and returns its graph.
func liftScenario(t *testing.T, name string) *hoare.Graph {
	t.Helper()
	scens, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		if s.Name != name {
			continue
		}
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		if fr.Graph == nil {
			t.Fatalf("scenario %s: no graph (status %s)", name, fr.Status)
		}
		return fr.Graph
	}
	t.Fatalf("no scenario %q", name)
	return nil
}

// TestScenariosLintClean is the acceptance gate: every graph produced by
// lifting the corpus scenarios is hglint-clean at severity error.
func TestScenariosLintClean(t *testing.T) {
	scens, err := corpus.AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	cache := solver.NewCache()
	for _, s := range scens {
		l := core.New(s.Image, core.DefaultConfig())
		fr := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
		if fr.Status != core.StatusLifted || fr.Graph == nil {
			// A failed lift stops exploring mid-graph (Line 13's fail
			// path), so its partial graph is not expected to be clean.
			t.Logf("%s: status %s — skipped", s.Name, fr.Status)
			continue
		}
		rep := Lint(fr.Graph, WithCache(cache))
		for _, d := range rep.Diagnostics {
			if d.Severity == SevError {
				t.Errorf("%s: %s", s.Name, d)
			} else {
				t.Logf("%s: %s", s.Name, d)
			}
		}
	}
}

// hasDiag reports whether the report contains a diagnostic of the named
// rule (optionally also matching a message substring).
func hasDiag(rep *Report, rule, msgContains string) bool {
	for _, d := range rep.Diagnostics {
		if d.Rule == rule && strings.Contains(d.Msg, msgContains) {
			return true
		}
	}
	return false
}

// TestCorruptionsFire deliberately corrupts a lifted graph and asserts
// the matching named diagnostic fires.
func TestCorruptionsFire(t *testing.T) {
	t.Run("dangling-edge", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		g.Edges = append(g.Edges, hoare.Edge{From: "nosuch", To: "alsonosuch"})
		rep := Lint(g)
		if !hasDiag(rep, "hg-dangling-edge", "does not exist") {
			t.Fatalf("expected hg-dangling-edge, got:\n%s", rep)
		}
	})

	t.Run("terminal-out-edge", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		g.Edges = append(g.Edges, hoare.Edge{From: hoare.ExitID, To: g.EntryID})
		rep := Lint(g)
		if !hasDiag(rep, "hg-terminal-out-edge", "out-edge") {
			t.Fatalf("expected hg-terminal-out-edge, got:\n%s", rep)
		}
	})

	t.Run("call-without-callee", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		for i := range g.Edges {
			if g.Edges[i].Kind == sem.KCall {
				g.Edges[i].Callee = ""
			}
		}
		// Even if the scenario had no call edge, synthesize one between
		// existing vertices so the rule has something to bite on.
		entry := g.Vertices[g.EntryID]
		g.Edges = append(g.Edges, hoare.Edge{
			From: g.EntryID, To: hoare.HaltID, Kind: sem.KCall,
			Addr: entry.Addr,
		})
		rep := Lint(g)
		if !hasDiag(rep, "hg-call-callee", "no callee") {
			t.Fatalf("expected hg-call-callee, got:\n%s", rep)
		}
	})

	t.Run("edge-inst-not-disassembled", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		delete(g.Instrs, g.Edges[0].Addr)
		rep := Lint(g)
		if !hasDiag(rep, "hg-edge-inst", "not in the recovered disassembly") {
			t.Fatalf("expected hg-edge-inst, got:\n%s", rep)
		}
	})

	t.Run("edge-inst-off-source", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		// Label the entry's first out-edge with another lifted
		// instruction: it is in Instrs, but not at the source vertex.
		entry := g.Vertices[g.EntryID]
		i := slices.IndexFunc(g.Edges, func(e hoare.Edge) bool { return e.From == g.EntryID })
		if i < 0 {
			t.Fatal("entry vertex has no out-edge")
		}
		for a := range g.Instrs {
			if a != entry.Addr {
				g.Edges[i].Addr = a
				break
			}
		}
		rep := Lint(g)
		if !hasDiag(rep, "hg-edge-inst", "does not match its source vertex address") {
			t.Fatalf("expected hg-edge-inst, got:\n%s", rep)
		}
	})

	t.Run("stripped-ret-clause", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		want := expr.V(g.RetSym).Key()
		stripped := 0
		for _, v := range g.Vertices {
			if v.State == nil {
				continue
			}
			var drop []pred.MemEntry
			v.State.Pred.MemEntries(func(m pred.MemEntry) {
				if m.Val.Key() == want {
					drop = append(drop, m)
				}
			})
			for _, m := range drop {
				v.State.Pred.DropMem(m.Addr, m.Size)
				stripped++
			}
		}
		if stripped == 0 {
			t.Fatal("no return-address clause found to strip")
		}
		rep := Lint(g)
		if !hasDiag(rep, "hg-ret-integrity", "no return-address clause") {
			t.Fatalf("expected hg-ret-integrity, got:\n%s", rep)
		}
	})

	t.Run("overlapping-live-regions", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		v := g.Vertices[g.EntryID]
		rsp0 := expr.V("rsp0")
		// Two sibling (claimed-separate) regions at constant offsets 0 and
		// 4, both 8 bytes: they necessarily partially overlap.
		v.State.Mem = memmodel.Forest{
			memmodel.Leaf(memmodel.NewRegion(rsp0, 8)),
			memmodel.Leaf(memmodel.NewRegion(expr.Add(rsp0, expr.Word(4)), 8)),
		}
		rep := Lint(g)
		if !hasDiag(rep, "mm-partial-overlap", "partially overlap") {
			t.Fatalf("expected mm-partial-overlap, got:\n%s", rep)
		}
		if !hasDiag(rep, "mm-relation-refuted", "refutes") {
			t.Fatalf("expected mm-relation-refuted, got:\n%s", rep)
		}
	})

	t.Run("missing-entry", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		g.EntryID = "nonexistent"
		rep := Lint(g)
		if !hasDiag(rep, "hg-entry", "not in the vertex set") {
			t.Fatalf("expected hg-entry, got:\n%s", rep)
		}
	})

	t.Run("no-successor", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		g.Vertices["stranded"] = &hoare.Vertex{ID: "stranded", Addr: 0xdead}
		rep := Lint(g)
		if !hasDiag(rep, "hg-no-successor", "no out-edge") {
			t.Fatalf("expected hg-no-successor, got:\n%s", rep)
		}
		if !hasDiag(rep, "hg-unreachable", "unreachable") {
			t.Fatalf("expected hg-unreachable warn, got:\n%s", rep)
		}
	})

	t.Run("dup-region-and-cycle", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		v := g.Vertices[g.EntryID]
		rsp0 := expr.V("rsp0")
		parent := memmodel.Leaf(memmodel.NewRegion(rsp0, 8))
		parent.Kids = memmodel.Forest{memmodel.Leaf(memmodel.NewRegion(rsp0, 8))}
		v.State.Mem = memmodel.Forest{parent}
		rep := Lint(g)
		if !hasDiag(rep, "mm-cycle", "enclosed in itself") {
			t.Fatalf("expected mm-cycle, got:\n%s", rep)
		}
		if !hasDiag(rep, "mm-dup-region", "twice") {
			t.Fatalf("expected mm-dup-region, got:\n%s", rep)
		}
	})

	t.Run("inverted-range", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		v := g.Vertices[g.EntryID]
		v.State.Pred.AddRange(expr.V("rdi0"), pred.Range{Lo: 5, Hi: 2})
		rep := Lint(g)
		if !hasDiag(rep, "pred-range-inverted", "inverted") {
			t.Fatalf("expected pred-range-inverted, got:\n%s", rep)
		}
	})

	t.Run("inconsistent-aliasing-values", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		v := g.Vertices[g.EntryID]
		p := v.State.Pred
		// x is pinned to 4, so rsp0+x necessarily aliases rsp0+4 — but the
		// two clauses disagree on the region's value.
		x := expr.V("x")
		p.AddRange(x, pred.Range{Lo: 4, Hi: 4})
		p.WriteMem(expr.Add(expr.V("rsp0"), x), 8, expr.Word(1))
		p.WriteMem(expr.Add(expr.V("rsp0"), expr.Word(4)), 8, expr.Word(2))
		rep := Lint(g, WithCache(solver.NewCache()))
		if !hasDiag(rep, "pred-inconsistent", "different values") {
			t.Fatalf("expected pred-inconsistent, got:\n%s", rep)
		}
	})

	t.Run("unbounded-indirect-jump", func(t *testing.T) {
		g := liftScenario(t, "ret2win")
		// Record an indirect jmp through rax in the disassembly with
		// neither a Resolved entry nor an annotation.
		g.Instrs[0xbad0] = x86.Inst{
			Addr: 0xbad0, Mn: x86.JMP,
			Ops: []x86.Operand{x86.RegOp(x86.RAX, 8)},
		}
		rep := Lint(g)
		if !hasDiag(rep, "hg-unbounded-jump", "neither resolved nor annotated") {
			t.Fatalf("expected hg-unbounded-jump, got:\n%s", rep)
		}
	})
}

// TestAnnotatedStopIsClean checks the other half of hg-no-successor and
// hg-unbounded-jump: an annotated unsoundness is an accepted stop, not a
// diagnostic.
func TestAnnotatedStopIsClean(t *testing.T) {
	g := liftScenario(t, "ret2win")
	g.Vertices["stopped"] = &hoare.Vertex{ID: "stopped", Addr: 0xbad0}
	g.Instrs[0xbad0] = x86.Inst{
		Addr: 0xbad0, Mn: x86.JMP,
		Ops: []x86.Operand{x86.RegOp(x86.RAX, 8)},
	}
	g.Annotate(0xbad0, hoare.AnnUnresolvedJump, "rip evaluates to rax0")
	rep := Lint(g, Only("hg-no-successor", "hg-unbounded-jump"))
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("annotated stop should be clean, got:\n%s", rep)
	}
}

func TestLintNilGraph(t *testing.T) {
	rep := Lint(nil)
	if !rep.HasErrors() || !hasDiag(rep, "hg-entry", "no graph") {
		t.Fatalf("nil graph should yield an hg-entry error, got:\n%s", rep)
	}
}

func TestRulesCatalog(t *testing.T) {
	want := []string{
		"hg-entry", "hg-dangling-edge", "hg-terminal-out-edge",
		"hg-call-callee", "hg-no-successor", "hg-unreachable", "hg-edge-inst",
		"mm-empty-tree", "mm-dup-region", "mm-cycle", "mm-partial-overlap",
		"mm-relation-refuted",
		"pred-range-inverted", "pred-range-vacuous", "pred-noncanonical",
		"pred-bot", "hg-ret-integrity", "hg-unbounded-jump",
		"pred-inconsistent",
	}
	have := map[string]Rule{}
	for _, r := range Rules() {
		have[r.Name] = r
		if r.Doc == "" {
			t.Errorf("rule %s has no doc line", r.Name)
		}
		if r.Check == nil {
			t.Errorf("rule %s has no check", r.Name)
		}
	}
	for _, name := range want {
		if _, ok := have[name]; !ok {
			t.Errorf("rule %s not registered", name)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d rules, want %d", len(have), len(want))
	}
}

// TestReportDeterministicJSON checks the diagnostic ordering contract
// (errors first, then by rule/vertex/addr/msg) and the JSON shape.
func TestReportDeterministicJSON(t *testing.T) {
	g := liftScenario(t, "ret2win")
	g.Edges = append(g.Edges, hoare.Edge{From: "nosuch", To: "alsonosuch"})
	g.Vertices["stranded"] = &hoare.Vertex{ID: "stranded", Addr: 0xdead}

	rep1 := Lint(g)
	rep2 := Lint(g)
	j1, j2 := rep1.JSON(), rep2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("lint reports of the same graph differ across runs")
	}
	for i := 1; i < len(rep1.Diagnostics); i++ {
		if rep1.Diagnostics[i-1].Severity < rep1.Diagnostics[i].Severity {
			t.Fatalf("diagnostics not ordered by severity:\n%s", rep1)
		}
	}

	var decoded Report
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if decoded.Func != g.FuncName || len(decoded.Diagnostics) != len(rep1.Diagnostics) {
		t.Fatalf("decoded report mismatch: %+v", decoded)
	}
	for i, d := range decoded.Diagnostics {
		if d != rep1.Diagnostics[i] {
			t.Fatalf("diagnostic %d changed across JSON round-trip: %+v != %+v", i, d, rep1.Diagnostics[i])
		}
	}
}

func TestOnlyFilter(t *testing.T) {
	g := liftScenario(t, "ret2win")
	g.Edges = append(g.Edges, hoare.Edge{From: "nosuch", To: "alsonosuch"})
	rep := Lint(g, Only("hg-terminal-out-edge"))
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("filtered lint should not report other rules, got:\n%s", rep)
	}
}

func TestSeverityText(t *testing.T) {
	for _, s := range []Severity{SevError, SevWarn, SevInfo} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := back.UnmarshalText(b); err != nil || back != s {
			t.Fatalf("severity %v does not round-trip (%q, %v)", s, b, err)
		}
	}
	var bad Severity
	if err := bad.UnmarshalText([]byte("fatal")); err == nil {
		t.Fatal("unknown severity should not parse")
	}
}

// cacheModes runs a lint test without and with a solver cache: the
// memory classes must not depend on the memo.
var cacheModes = []struct {
	name string
	opts func() []Option
}{
	{"nocache", func() []Option { return nil }},
	{"cache", func() []Option { return []Option{WithCache(solver.NewCache())} }},
}

// twoStateVertices returns the first two non-terminal vertices, in vertex
// order, that carry states and sit at different addresses. Each gets a
// state of its own, so a test may rewrite it.
func twoStateVertices(t *testing.T, g *hoare.Graph) (*hoare.Vertex, *hoare.Vertex) {
	t.Helper()
	var picked []*hoare.Vertex
	for _, v := range g.SortedVertices() {
		if v.State == nil || isTerminal(v.ID) || (len(picked) == 1 && picked[0].Addr == v.Addr) {
			continue
		}
		v.State = v.State.Clone()
		if picked = append(picked, v); len(picked) == 2 {
			return picked[0], picked[1]
		}
	}
	t.Fatal("graph has fewer than two vertices with states")
	return nil, nil
}

// sameMemClass reports whether Lint's memory classes put a and b together.
func sameMemClass(g *hoare.Graph, a, b *hoare.Vertex) bool {
	for _, class := range (&Ctx{Graph: g}).memClasses() {
		if slices.Contains(class, a) {
			return slices.Contains(class, b)
		}
	}
	return false
}

// msgsAt returns the messages of the rule's diagnostics reported at the
// vertex, failing the test if one carries another vertex's address.
func msgsAt(t *testing.T, rep *Report, rule string, v *hoare.Vertex) []string {
	t.Helper()
	var out []string
	for _, d := range rep.Diagnostics {
		if d.Rule != rule || d.Vertex != string(v.ID) {
			continue
		}
		if d.Addr != v.Addr {
			t.Errorf("%s diagnostic at vertex %s carries address %#x, want %#x", rule, v.ID, d.Addr, v.Addr)
		}
		out = append(out, d.Msg)
	}
	return out
}

// TestMemClassReplay gives two vertices one corrupted forest: the
// memory-model rules run once for their class, and each vertex still gets
// every finding under its own vertex and address.
func TestMemClassReplay(t *testing.T) {
	for _, mode := range cacheModes {
		t.Run(mode.name, func(t *testing.T) {
			g := liftScenario(t, "ret2win")
			v1, v2 := twoStateVertices(t, g)
			rsp0 := expr.V("rsp0")
			// A region enclosed in itself (dup region, cycle) beside a
			// sibling it necessarily partially overlaps (refuted ⋈).
			parent := memmodel.Leaf(memmodel.NewRegion(rsp0, 8))
			parent.Kids = memmodel.Forest{memmodel.Leaf(memmodel.NewRegion(rsp0, 8))}
			f := memmodel.Forest{parent, memmodel.Leaf(memmodel.NewRegion(expr.Add(rsp0, expr.Word(4)), 8))}
			v1.State.Mem, v2.State.Mem = f, f
			if !sameMemClass(g, v1, v2) {
				t.Fatalf("vertices %s and %s should share a memory class", v1.ID, v2.ID)
			}
			rep := Lint(g, mode.opts()...)
			for _, rule := range []string{"mm-dup-region", "mm-cycle", "mm-partial-overlap", "mm-relation-refuted"} {
				m1, m2 := msgsAt(t, rep, rule, v1), msgsAt(t, rep, rule, v2)
				if len(m1) == 0 || !slices.Equal(m1, m2) {
					t.Errorf("%s: vertex %s reports %q, vertex %s reports %q", rule, v1.ID, m1, v2.ID, m2)
				}
			}
		})
	}
}

// TestMemClassSplitsOnRanges gives two vertices one forest but different
// interval clauses: the solver refutes the forest's separation under one
// of them only, so only that vertex reports.
func TestMemClassSplitsOnRanges(t *testing.T) {
	for _, mode := range cacheModes {
		t.Run(mode.name, func(t *testing.T) {
			g := liftScenario(t, "ret2win")
			v1, v2 := twoStateVertices(t, g)
			rsp0, x := expr.V("rsp0"), expr.V("x")
			f := memmodel.Forest{
				memmodel.Leaf(memmodel.NewRegion(expr.Add(rsp0, x), 8)),
				memmodel.Leaf(memmodel.NewRegion(rsp0, 8)),
			}
			v1.State.Mem, v2.State.Mem = f, f
			v1.State.Pred.AddRange(x, pred.Range{Lo: 4, Hi: 4})   // overlaps rsp0
			v2.State.Pred.AddRange(x, pred.Range{Lo: 16, Hi: 32}) // clear of it
			if sameMemClass(g, v1, v2) {
				t.Fatalf("vertices %s and %s differ in their interval clauses but share a memory class", v1.ID, v2.ID)
			}
			rep := Lint(g, mode.opts()...)
			if m := msgsAt(t, rep, "mm-relation-refuted", v1); len(m) != 1 || !strings.Contains(m[0], "⋈") {
				t.Errorf("vertex %s: want one refuted separation, got %q", v1.ID, m)
			}
			if m := msgsAt(t, rep, "mm-relation-refuted", v2); len(m) != 0 {
				t.Errorf("vertex %s: want no refuted relation, got %q", v2.ID, m)
			}
		})
	}
}
