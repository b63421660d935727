package corpus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/hoare"
	"repro/internal/sem"
	"repro/internal/triple"
	"repro/internal/x86"
)

func liftScenario(t *testing.T, s *Scenario) *core.FuncResult {
	t.Helper()
	l := core.New(s.Image, core.DefaultConfig())
	return l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
}

// TestWeirdEdge replays Section 2 end to end: the binary lifts, the jump
// table is bounded, the aliasing fork produces the hidden-ret weird edge
// at entry+1, and the Hoare graph overapproximates concrete execution.
func TestWeirdEdge(t *testing.T) {
	s, err := WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	r := liftScenario(t, s)
	if r.Status != core.StatusLifted {
		t.Fatalf("status %s: %v", r.Status, r.Reasons)
	}
	st := r.Stats()
	if st.ResolvedInd != 1 {
		t.Fatalf("the indirect jump must be resolved: %+v", st)
	}
	if st.UnresolvedJump != 0 || st.UnresolvedCall != 0 {
		t.Fatalf("no annotations expected: %+v", st)
	}
	// The weird edge: a vertex at entry+1 — the ret hidden inside the cmp
	// immediate (byte 0xc3).
	weird := r.Graph.VerticesAt(s.FuncAddr + 1)
	if len(weird) == 0 {
		t.Fatalf("hidden ret vertex at %#x not found", s.FuncAddr+1)
	}
	if inst, ok := r.Graph.Instrs[s.FuncAddr+1]; !ok || inst.Mn != x86.RET {
		t.Fatalf("instruction at entry+1: %v", inst)
	}
	// The weird vertex is reachable from the indirect jump.
	foundWeirdEdge := false
	for _, e := range r.Graph.Edges {
		if inst := r.Graph.Instrs[e.Addr]; inst.Mn == x86.JMP && inst.Ops[0].Kind == x86.OpMem {
			for _, v := range weird {
				if e.To == v.ID {
					foundWeirdEdge = true
				}
			}
		}
	}
	if !foundWeirdEdge {
		t.Fatal("the jmp [rdi] edge to the hidden ret is missing")
	}

	// Concrete cross-check: run the binary with aliasing pointers; the
	// execution really lands on the hidden ret, and the transition is in
	// the graph.
	c := emu.New(s.Image)
	c.Reset(s.FuncAddr)
	c.Regs[x86.RAX] = 2          // table index
	c.Regs[x86.RDI] = 0x7ffff000 // scratch memory
	c.Regs[x86.RSI] = 0x7ffff000 // aliases rdi
	trace, err := c.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	landedWeird := false
	for _, tr := range trace {
		if tr.To == s.FuncAddr+1 {
			landedWeird = true
		}
	}
	if !landedWeird {
		t.Fatalf("concrete aliasing run did not reach the gadget: %+v", trace)
	}

	// Step 2 proves the graph.
	rep := triple.Check(context.Background(), s.Image, r.Graph, sem.DefaultConfig(), triple.Workers(2))
	if !rep.AllProven() {
		for _, th := range rep.Sorted() {
			if th.Verdict == triple.Failed {
				t.Errorf("theorem %s: %s", th.Vertex, th.Reason)
			}
		}
		t.Fatal("weird-edge graph must verify")
	}
}

func TestRet2WinObligation(t *testing.T) {
	s, err := Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	r := liftScenario(t, s)
	if r.Status != core.StatusLifted {
		t.Fatalf("status %s: %v", r.Status, r.Reasons)
	}
	if len(r.Graph.Obligations) == 0 {
		t.Fatal("memset obligation missing")
	}
	ob := r.Graph.Obligations[0]
	for _, want := range []string{"memset", "rdi := rsp0 - 0x28", "MUST PRESERVE"} {
		if !strings.Contains(ob, want) {
			t.Errorf("obligation %q missing %q", ob, want)
		}
	}
}

func TestFailureScenarios(t *testing.T) {
	for _, tc := range []struct {
		build func() (*Scenario, error)
		want  core.Status
	}{
		{StackProbe, core.StatusUnprovableRet},
		{NonStdRSP, core.StatusUnprovableRet},
		{Overflow, core.StatusUnprovableRet},
	} {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		r := liftScenario(t, s)
		if r.Status != tc.want {
			t.Errorf("%s: status %s (want %s): %v", s.Name, r.Status, tc.want, r.Reasons)
		}
	}
}

func TestAllScenariosBuild(t *testing.T) {
	ss, err := AllScenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 5 {
		t.Fatalf("scenarios: %d", len(ss))
	}
	for _, s := range ss {
		if s.Describe == "" {
			t.Errorf("%s: missing description", s.Name)
		}
	}
}

// TestDirectoryOutcomes builds a small Table 1-shaped directory and checks
// that lifting reproduces the expected per-unit statuses.
func TestDirectoryOutcomes(t *testing.T) {
	shape := DirShape{
		Name: "testdir", Kind: KindLibFunc,
		Lifted: 8, Unprovable: 2, Concurrent: 2, Timeout: 1,
		CallbackFrac: 0.25, CompJumpFrac: 0.12,
		MinStmts: 2, MaxStmts: 8, Helpers: 1,
	}
	dir, err := BuildDirectory(shape, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir.Units) != 13 {
		t.Fatalf("units: %d", len(dir.Units))
	}
	var match, total int
	var stats hoare.Stats
	for _, u := range dir.Units {
		cfg := core.DefaultConfig()
		if u.Budget > 0 {
			cfg.MaxStates = u.Budget
		}
		l := core.New(u.Image, cfg)
		r := l.LiftFuncCtx(context.Background(), u.FuncAddr, u.Name)
		total++
		if r.Status == u.Expect {
			match++
		} else {
			t.Logf("%s: got %s want %s (%v)", u.Name, r.Status, u.Expect, r.Reasons)
		}
		stats.Add(r.Stats())
	}
	// The generator controls outcomes; a small slack absorbs random
	// programs whose benign features happen to trip a rejection.
	if match < total-1 {
		t.Fatalf("only %d/%d units matched their expected status", match, total)
	}
	if stats.UnresolvedCall == 0 {
		t.Fatal("callback units must produce unresolved calls (column C)")
	}
	if stats.UnresolvedJump == 0 {
		t.Fatal("computed-jump units must produce unresolved jumps (column B)")
	}
	if stats.Instructions == 0 || stats.States < stats.Instructions {
		t.Fatalf("stats shape: %+v", stats)
	}
}

func TestXenSuiteShape(t *testing.T) {
	dirs := XenSuite(1.0)
	if len(dirs) != 8 {
		t.Fatalf("directories: %d", len(dirs))
	}
	var bins, funcs int
	for _, d := range dirs {
		n := d.Lifted + d.Unprovable + d.Concurrent + d.Timeout
		if d.Kind == KindBinary {
			bins += n
		} else {
			funcs += n
		}
	}
	if bins != 63 {
		t.Fatalf("binaries: %d (Table 1 has 63)", bins)
	}
	if funcs != 2151 {
		t.Fatalf("library functions: %d (Table 1 has 2151)", funcs)
	}
	// Scaling keeps every nonzero category present.
	for _, d := range XenSuite(0.05) {
		if d.Lifted == 0 {
			t.Fatalf("%s: scaled away the lifted units", d.Name)
		}
	}
}

func TestCoreUtilsSuite(t *testing.T) {
	units, err := CoreUtilsSuite(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 6 {
		t.Fatalf("units: %d", len(units))
	}
	names := map[string]bool{}
	for _, u := range units {
		names[u.Name] = true
		l := core.New(u.Image, core.DefaultConfig())
		r := l.LiftBinaryCtx(context.Background(), u.Name)
		if r.Status != core.StatusLifted {
			t.Errorf("%s: %s", u.Name, r.Status)
		}
	}
	for _, want := range []string{"hexdump", "od", "wc", "tar", "du", "gzip"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

// TestExploitCandidateFromRet2Win turns the Section 5.3 obligation into a
// concrete exploit recipe (Section 7's security-analysis application): the
// ret2win pointer sits at rsp0-0x28, so writing 0x30 bytes reaches the
// stored return address.
func TestExploitCandidateFromRet2Win(t *testing.T) {
	s, err := Ret2Win()
	if err != nil {
		t.Fatal(err)
	}
	r := liftScenario(t, s)
	cands := core.ExploitCandidates(r)
	if len(cands) != 1 {
		t.Fatalf("candidates: %+v", cands)
	}
	c := cands[0]
	if c.Callee != "memset" || c.ArgReg != "rdi" {
		t.Fatalf("candidate shape: %+v", c)
	}
	if c.Offset != -0x28 || c.OverwriteLen != 0x30 {
		t.Fatalf("overwrite math: %+v", c)
	}
	if !strings.Contains(c.String(), "overwrites the return address") {
		t.Fatalf("rendering: %s", c.String())
	}
	// Concrete confirmation: emulate memset writing OverwriteLen bytes —
	// the function "returns" to the attacker value instead of its caller.
	c2 := emu.New(s.Image)
	c2.Reset(s.FuncAddr)
	c2.Externals["memset"] = func(cpu *emu.CPU) {
		dst := cpu.Regs[x86.RDI]
		for i := int64(0); i < c.OverwriteLen; i++ {
			cpu.WriteMem(dst+uint64(i), 1, 0x41)
		}
	}
	for !c2.Halted {
		if _, err := c2.Step(); err != nil {
			break // jumping to 0x4141... faults: the hijack happened
		}
		if c2.RIP == 0x4141414141414141 {
			break
		}
	}
	if c2.RIP != 0x4141414141414141 {
		t.Fatalf("exploit did not hijack control: rip=%#x", c2.RIP)
	}
}

// TestWeirdEdgeDOT exports the Section 2 graph to Graphviz and checks the
// weird vertex is highlighted.
func TestWeirdEdgeDOT(t *testing.T) {
	s, err := WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	r := liftScenario(t, s)
	dot := r.Graph.ToDOT()
	for _, want := range []string{"digraph", "WEIRD", "color=red", "exit"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q", want)
		}
	}
}

// TestWeirdVertexStat counts the Section 2 gadget in the statistics.
func TestWeirdVertexStat(t *testing.T) {
	s, err := WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	r := liftScenario(t, s)
	if got := r.Stats().WeirdVertices; got == 0 {
		t.Fatalf("weird vertices: %d", got)
	}
	addrs := r.Graph.WeirdAddresses()
	if len(addrs) != 1 || addrs[0] != s.FuncAddr+1 {
		t.Fatalf("weird addresses: %#x", addrs)
	}
}
