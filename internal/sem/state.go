// Package sem implements the predicate transformer τ of the paper: the
// symbolic execution of one x86-64 instruction over a symbolic state
// ⟨P, M⟩ (predicate × memory model), per Definition 4.2. Memory operands
// insert their regions into the memory model, nondeterministically forking
// the state when pointer relations are unknown; bounded reads from
// read-only data enumerate jump tables ("one edge per read value", §2).
package sem

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/x86"
)

// State is a symbolic state σ = ⟨P, M⟩: a vertex of the Hoare graph.
type State struct {
	Pred *pred.Pred
	Mem  memmodel.Forest
}

// NewState returns σ with predicate ⊤ and the empty memory model.
func NewState() *State {
	return &State{Pred: pred.New()}
}

// InitialState returns the paper's initial symbolic state for exploring a
// function: every register holds its initial-value variable (rax0, rdi0,
// …), and the top of the stack frame holds the symbolic return address
// retSym, with [rsp0, 8] inserted into the memory model
// (P0 = {∗[rsp,8] == a_r}, M0 = {[rsp0,8]} in Figure 1).
func InitialState(retSym expr.Var) *State {
	st := NewState()
	for _, r := range x86.GPRs {
		st.Pred.SetReg(r, expr.V(expr.Var(r.String()+"0")))
	}
	rsp0 := expr.V("rsp0")
	st.Pred.WriteMem(rsp0, 8, expr.V(retSym))
	st.Mem = memmodel.Forest{memmodel.Leaf(memmodel.NewRegion(rsp0, 8))}
	return st
}

// Clone returns a copy of the state whose predicate may be modified
// independently. The copy and its predicate are one allocation (a
// clonedState, 312 bytes), and the predicate copy shares its clause lists
// as pred.Pred.Clone's does. The memory model is shared: forests are
// immutable, and every memory operation installs a new one. The machine
// clones through Machine.clone, which reuses a recycled state when it
// has one.
func (s *State) Clone() *State {
	c := &clonedState{st: State{Mem: s.Mem}, pred: *s.Pred}
	c.st.Pred = &c.pred
	return &c.st
}

// clonedState holds a cloned State and the predicate its Pred points to.
type clonedState struct {
	st   State
	pred pred.Pred
}

// Key returns the canonical fingerprint of the state (predicate and
// memory model), used where a string identity is needed (NoJoin dedup,
// diagnostics).
func (s *State) Key() string {
	return s.Pred.Key() + "|" + s.Mem.Key()
}

// String renders the state.
func (s *State) String() string {
	return fmt.Sprintf("⟨%s, %s⟩", s.Pred, s.Mem)
}

// OutKind classifies the control effect of one symbolic step.
type OutKind uint8

// The control effects a step can have.
const (
	KFall OutKind = iota // fall through to the next instruction
	KJump                // rip set to Target (resolved or not)
	KCall                // call with Target (resolved or not); state is at the call site
	KRet                 // return; Target is the popped value
	KHalt                // no successor (hlt / ud2 / int3)
)

// String renders the kind.
func (k OutKind) String() string {
	switch k {
	case KFall:
		return "fall"
	case KJump:
		return "jump"
	case KCall:
		return "call"
	case KRet:
		return "ret"
	default:
		return "halt"
	}
}

// Outcome is one element of stepΣ(σ): a successor symbolic state plus its
// control effect. For KJump/KCall, Target is the symbolic branch target
// (a Word when resolved). For KRet, Target is the popped return value and
// the state has rsp already incremented.
type Outcome struct {
	State  *State
	Kind   OutKind
	Target *expr.Expr
}

// Resolved returns the concrete target address if Target is a word.
func (o Outcome) Resolved() (uint64, bool) {
	if o.Target == nil {
		return 0, false
	}
	return o.Target.AsWord()
}
