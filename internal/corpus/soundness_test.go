package corpus

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/hoare"
	"repro/internal/x86"
)

// edgeRelation indexes the HG edges of every lifted function of a binary
// as an address-level transition relation, together with enough structure
// to validate call/return transitions of a concrete trace.
type edgeRelation struct {
	allowed  map[[2]uint64]bool
	retSites map[uint64]bool // addresses of proven rets
	callTo   map[uint64]map[uint64]bool
	haltAt   map[uint64]bool
	instrs   map[uint64]bool
}

func buildRelation(t *testing.T, l *core.Lifter) *edgeRelation {
	t.Helper()
	rel := &edgeRelation{
		allowed:  map[[2]uint64]bool{},
		retSites: map[uint64]bool{},
		callTo:   map[uint64]map[uint64]bool{},
		haltAt:   map[uint64]bool{},
		instrs:   map[uint64]bool{},
	}
	for _, fr := range l.Summaries() {
		if fr.Graph == nil {
			continue
		}
		addrOf := map[hoare.VertexID]uint64{}
		for id, v := range fr.Graph.Vertices {
			addrOf[id] = v.Addr
		}
		for a := range fr.Graph.Instrs {
			rel.instrs[a] = true
		}
		for _, e := range fr.Graph.Edges {
			switch e.To {
			case hoare.ExitID:
				rel.retSites[e.Addr] = true
			case hoare.HaltID:
				rel.haltAt[e.Addr] = true
			default:
				rel.allowed[[2]uint64{e.Addr, addrOf[e.To]}] = true
			}
			if inst := fr.Graph.Instrs[e.Addr]; inst.Mn == x86.CALL {
				if tgt, ok := inst.Target(); ok {
					m := rel.callTo[e.Addr]
					if m == nil {
						m = map[uint64]bool{}
						rel.callTo[e.Addr] = m
					}
					m[tgt] = true
				}
			}
		}
	}
	return rel
}

// simulated checks one concrete transition against the relation.
func (rel *edgeRelation) simulated(im interface{ PLTName(uint64) (string, bool) }, tr emu.Transition) bool {
	if rel.allowed[[2]uint64{tr.From, tr.To}] {
		return true
	}
	// A call edge: the concrete transition enters the callee, while the
	// context-free graph edges go to the continuation. The callee entry
	// must be the call's resolved target.
	if m, ok := rel.callTo[tr.From]; ok && m[tr.To] {
		return true
	}
	// Calls into PLT stubs are modelled as external-call edges; the
	// emulator handles them at call time, so no stub transition appears.
	// A proven ret may return to any of its callers' continuations: the
	// continuation must itself be a lifted instruction.
	if rel.retSites[tr.From] && rel.instrs[tr.To] {
		return true
	}
	return false
}

// TestOverapproximationOnGeneratedCorpus is Definition 4.6 as an
// end-to-end property: for randomly generated multi-function binaries,
// every transition of every concrete run is simulated by the lifted Hoare
// graphs.
func TestOverapproximationOnGeneratedCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 12
	for trial := 0; trial < trials; trial++ {
		fe := cgen.DefaultFeatures()
		fe.Externs = []string{"malloc", "free"}
		p := cgen.GenProgram(rng, 1+rng.Intn(3), fe)
		res, err := cgen.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		l := core.New(res.Image, core.DefaultConfig())
		br := l.LiftBinaryCtx(context.Background(), "gen")
		if br.Status != core.StatusLifted {
			// A rejected binary makes no overapproximation claim.
			continue
		}
		rel := buildRelation(t, l)

		for run := 0; run < 6; run++ {
			c := emu.New(res.Image)
			c.Regs[x86.RDI] = uint64(rng.Intn(40))
			c.Externals["exit"] = func(c *emu.CPU) { c.Halted = true }
			trace, err := c.Run(500000)
			if err != nil {
				t.Fatalf("trial %d: emu: %v", trial, err)
			}
			if !c.Halted {
				t.Fatalf("trial %d: did not terminate", trial)
			}
			for _, tr := range trace {
				if !rel.simulated(res.Image, tr) {
					t.Fatalf("trial %d run %d: concrete transition %#x→%#x not simulated by the HG",
						trial, run, tr.From, tr.To)
				}
			}
		}
	}
}

// TestOverapproximationScenarioBinaries checks the simulation property on
// the hand-assembled weird-edge binary across all table indices and both
// aliasing regimes.
func TestOverapproximationScenarioBinaries(t *testing.T) {
	s, err := WeirdEdge()
	if err != nil {
		t.Fatal(err)
	}
	l := core.New(s.Image, core.DefaultConfig())
	r := l.LiftFuncCtx(context.Background(), s.FuncAddr, s.Name)
	if r.Status != core.StatusLifted {
		t.Fatal(r.Status)
	}
	rel := buildRelation(t, l)
	for idx := uint64(0); idx <= 0xc5; idx += 13 {
		for _, alias := range []bool{true, false} {
			c := emu.New(s.Image)
			c.Reset(s.FuncAddr)
			c.Regs[x86.RAX] = idx
			c.Regs[x86.RDI] = 0x7ffff800
			if alias {
				c.Regs[x86.RSI] = 0x7ffff800
			} else {
				c.Regs[x86.RSI] = 0x7ffff900
			}
			trace, err := c.Run(1000)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trace {
				if !rel.simulated(s.Image, tr) {
					t.Fatalf("idx=%d alias=%v: %#x→%#x not simulated", idx, alias, tr.From, tr.To)
				}
			}
		}
	}
}
