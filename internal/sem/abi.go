package sem

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/solver"
	"repro/internal/x86"
)

// stackBased reports whether an address is derived from the initial stack
// pointer (the caller's local frame).
func stackBased(a *expr.Expr) bool { return a.ContainsVar("rsp0") }

// CleanAfterCall implements the paper's treatment of (unknown external and
// summarised internal) function calls under the 64-bit System V calling
// convention (Section 4.2.1): caller-saved registers, flags, and all heap
// and global memory clauses are destroyed (assigned fresh unknowns); the
// local stack frame and the callee-saved registers are kept. The memory
// model drops every tree not rooted in the stack frame. The returned state
// is the continuation state after the call.
func (m *Machine) CleanAfterCall(st *State, callAddr uint64) *State {
	m.curAddr = callAddr
	m.nfresh = 100 // distinct namespace from the call instruction's own step
	s := m.clone(st)
	for _, r := range x86.CallerSaved {
		s.Pred.SetReg(r, m.fresh())
	}
	s.Pred.ClearFlags()
	s.Pred.FilterMem(func(e pred.MemEntry) bool { return stackBased(e.Addr) })
	var kept memmodel.Forest
	for _, t := range s.Mem {
		all := true
		for _, r := range t.Kids.AllRegions(append([]solver.Region(nil), t.Regions...)) {
			if !stackBased(r.Addr) {
				all = false
				break
			}
		}
		if all {
			kept = append(kept, t)
		}
	}
	s.Mem = kept
	return s
}

// CallObligations generates the proof obligations of Section 5.3 for a
// call to an unknown external function: any argument register holding a
// pointer into the caller's stack frame obliges the callee not to touch
// the region around the stored return address. The obligations are
// rendered in the paper's format:
//
//	@400701 : memset(RDI := RSP0 - 40) MUST PRESERVE [RSP0 - 8 TO RSP0 + 8]
func (m *Machine) CallObligations(st *State, name string, callAddr uint64) []string {
	var out []string
	for _, r := range x86.ArgRegs {
		v := st.Pred.Reg(r)
		if v == nil || !stackBased(v) {
			continue
		}
		out = append(out, fmt.Sprintf("@%x : %s(%s := %s) MUST PRESERVE [rsp0 - 8 TO rsp0 + 8]",
			callAddr, name, r.Name(8), v))
	}
	return out
}

// RetCheck holds the outcome of verifying the three sanity properties at a
// ret instruction (return address integrity, stack pointer restoration and
// calling convention adherence).
type RetCheck struct {
	OK      bool
	Reasons []string
}

// CheckReturn verifies, on a KRet outcome, that the function returns to
// its symbolic return address with the stack pointer restored to rsp0+8
// and every callee-saved register restored to its initial value — the
// sanity properties the paper proves per function. retSym is the symbolic
// return address pushed at function entry.
func CheckReturn(o Outcome, retSym expr.Var) RetCheck {
	chk := RetCheck{OK: true}
	failf := func(format string, args ...any) {
		chk.OK = false
		chk.Reasons = append(chk.Reasons, fmt.Sprintf(format, args...))
	}
	if o.Target == nil || !o.Target.Equal(expr.V(retSym)) {
		failf("return address integrity: popped %v, want %s", o.Target, retSym)
	}
	rsp := o.State.Pred.Reg(x86.RSP)
	want := expr.Add(expr.V("rsp0"), expr.Word(8))
	if rsp == nil || !rsp.Equal(want) {
		failf("stack pointer not restored: rsp = %v, want rsp0 + 8", rsp)
	}
	for _, r := range x86.CalleeSaved {
		v := o.State.Pred.Reg(r)
		if v == nil || !v.Equal(expr.V(expr.Var(r.String()+"0"))) {
			failf("calling convention: %s = %v, want %s0", r, v, r)
		}
	}
	return chk
}
