package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/hoare"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/x86"
)

// workItem is one entry of Algorithm 1's bag: a symbolic state to explore
// at an instruction address, with the vertex it belongs to (computed once,
// when the item is made).
type workItem struct {
	rip uint64
	st  *sem.State
	vid hoare.VertexID
}

// explorer holds the per-function exploration state.
type explorer struct {
	l     *Lifter
	ctx   context.Context
	tr    *obs.Tracer
	g     *hoare.Graph
	res   *FuncResult
	bag   []workItem
	seen  map[string]bool                  // NoJoin ablation: vertexID+stateKey dedup
	vars  map[*hoare.Vertex]*pred.JoinVars // made on a vertex's first join
	fatal bool
	t0    time.Time
}

// explore runs Algorithm 1 from a function entry.
func (l *Lifter) explore(ctx context.Context, addr uint64, name string) *FuncResult {
	retSym := RetSymFor(addr)
	g := hoare.NewGraph(addr, name, retSym)
	res := &FuncResult{Name: name, Addr: addr, Status: StatusLifted, Graph: g}
	e := &explorer{
		l: l, ctx: ctx, tr: l.Cfg.Sem.Tracer,
		g: g, res: res,
		seen: map[string]bool{},
		t0:   time.Now(),
	}
	e.tr.LiftStart(name, addr)
	// The hypotheses this exploration's own steps make; a callee explored
	// meanwhile tracks its own, and the defer restores the caller's set.
	own := map[string]bool{}
	prevOwn := l.mach.TrackAssumptions(own)
	defer l.mach.TrackAssumptions(prevOwn)

	// Pointer pre-pass: install this function's fact table for the duration
	// of the exploration. Facts are keyed on the function's own initial-state
	// symbols (rsp0, rdi0, …), so a callee explored through handleCall swaps
	// in its own table and the defer restores the caller's on return.
	if l.Cfg.PointerFacts {
		prev := l.mach.Cfg.Facts
		l.mach.Cfg.Facts = l.pointerAnalysis(addr, name).Facts
		defer func() { l.mach.Cfg.Facts = prev }()
	}

	init := sem.InitialState(retSym)
	g.EntryID = l.vertexID(addr, init)
	g.Vertices[hoare.ExitID] = &hoare.Vertex{ID: hoare.ExitID}
	g.Vertices[hoare.HaltID] = &hoare.Vertex{ID: hoare.HaltID}
	e.bag = []workItem{{rip: addr, st: init, vid: g.EntryID}}

	for len(e.bag) > 0 && !e.fatal {
		if err := e.ctxErr(); err != nil {
			st := StatusCancelled
			if errors.Is(err, context.DeadlineExceeded) {
				st = StatusDeadline
			}
			e.fail(st, fmt.Sprintf("after %d steps: %v", res.Steps, err))
			break
		}
		if res.Steps >= l.Cfg.MaxStates {
			e.fail(StatusTimeout, fmt.Sprintf("exploration budget exhausted after %d steps", res.Steps))
			break
		}
		item := e.bag[len(e.bag)-1]
		e.bag = e.bag[:len(e.bag)-1]
		e.exploreOne(item)
	}

	// Per-function assumptions: the recursion assumptions handleCall
	// appended, and every hypothesis this exploration's own steps made,
	// also one an earlier exploration made first (a tail jump into code
	// lifted earlier makes that code's hypotheses again). A callee's
	// hypotheses are listed by the callee's graph only.
	for a := range own {
		g.Assumptions = append(g.Assumptions, a)
	}
	sort.Strings(g.Assumptions)
	res.Duration = time.Since(e.t0)
	e.tr.LiftFinish(name, addr, res.Status.String(), res.Steps, res.Duration)
	return res
}

// ctxErr reports the exploration context's cancellation cause, nil while
// it is live (or when no context was threaded — the deprecated
// entrypoints pass context.Background()).
func (e *explorer) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// fail records a verification failure; the function is rejected and no
// (complete) HG is produced.
func (e *explorer) fail(st Status, reason string) {
	if e.res.Status == StatusLifted {
		e.res.Status = st
	}
	e.res.Reasons = append(e.res.Reasons, reason)
	e.fatal = true
}

// vertexID keys a vertex: the instruction address plus, unless the
// ablation disables it, the code-pointer signature of the state (states
// holding different immediate pointers into the text section are
// incompatible and kept apart; Section 4).
func (l *Lifter) vertexID(rip uint64, st *sem.State) hoare.VertexID {
	id, ok := l.addrIDs[rip]
	if !ok {
		id = strconv.FormatUint(rip, 16)
		l.addrIDs[rip] = id
	}
	if l.Cfg.JoinCodePointers {
		return hoare.VertexID(id)
	}
	lo, hi := l.Img.TextRange()
	parts := st.Pred.CodePointerParts(lo, hi)
	if len(parts) == 0 {
		return hoare.VertexID(id)
	}
	sort.Strings(parts)
	for _, p := range parts {
		id += "/" + p
	}
	return hoare.VertexID(id)
}

// exploreOne is the body of Algorithm 1's explore function: join with a
// compatible state if one exists, stop at the fixed point, otherwise step
// and enqueue the successors.
func (e *explorer) exploreOne(item workItem) {
	vid := item.vid
	v, exists := e.g.Vertices[vid]
	var cur *sem.State
	switch {
	case exists && !e.l.Cfg.NoJoin:
		// A state object is held by one work item, then by at most one
		// vertex: a new vertex takes its item's state (below), and nothing
		// else keeps a vertex's State pointer (Step clones its input and
		// never keeps it). So a join that weakens the vertex is written
		// into the vertex's own State and Pred, which it keeps for its
		// whole life. The item owns its state (sem.Machine.Step), so the
		// join is built in the item's predicate; after the join that state
		// is dead, whether the join weakened the vertex or reached the
		// fixed point, and goes back to the machine for its next clone.
		p := pred.Join(item.st.Pred, v.State.Pred, e.joinVars(v))
		m := memmodel.Join(item.st.Mem, v.State.Mem)
		if p.Same(v.State.Pred) && m.Same(v.State.Mem) {
			e.l.mach.Recycle(item.st)
			return // σ ⊑ σc: no further exploration necessary
		}
		if p != v.State.Pred {
			*v.State.Pred = *p
		}
		v.State.Mem = m
		e.l.mach.Recycle(item.st)
		v.Joins++
		e.tr.Join(item.rip, string(vid))
		cur = v.State
	case exists: // NoJoin ablation
		k := string(vid) + "|" + item.st.Key()
		if e.seen[k] {
			return
		}
		e.seen[k] = true
		cur = item.st
	default:
		v = &hoare.Vertex{ID: vid, Addr: item.rip, State: item.st}
		e.g.Vertices[vid] = v
		cur = item.st
	}
	e.res.Steps++
	e.tr.Step(item.rip)

	// A vertex is stepped again after each join that weakens it: the
	// instruction is fetched on the address's first step only.
	inst, fetched := e.g.Instrs[item.rip]
	if !fetched {
		var err error
		if inst, err = e.l.Img.Fetch(item.rip); err != nil {
			e.g.Annotate(item.rip, hoare.AnnFetchError, err.Error())
			e.fail(StatusError, fmt.Sprintf("fetch at %#x: %v", item.rip, err))
			return
		}
		e.g.Instrs[item.rip] = inst
	}

	outs, err := e.l.mach.Step(cur, inst)
	if err != nil {
		e.g.Annotate(item.rip, hoare.AnnFetchError, err.Error())
		e.fail(StatusError, err.Error())
		return
	}
	for _, o := range outs {
		e.handleOutcome(v, inst, o)
		if e.fatal {
			return
		}
	}
}

// joinVars returns the join-variable table of vertex v, made on the
// vertex's first join: most vertices are never joined.
func (e *explorer) joinVars(v *hoare.Vertex) *pred.JoinVars {
	jv := e.vars[v]
	if jv == nil {
		if e.vars == nil {
			e.vars = map[*hoare.Vertex]*pred.JoinVars{}
		}
		jv = pred.NewJoinVars(string(v.ID))
		e.vars[v] = jv
	}
	return jv
}

// handleOutcome processes one element of stepΣ(σ).
func (e *explorer) handleOutcome(v *hoare.Vertex, inst x86.Inst, o sem.Outcome) {
	switch o.Kind {
	case sem.KHalt:
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Addr: inst.Addr, Kind: o.Kind})

	case sem.KFall, sem.KJump:
		tgt, ok := o.Resolved()
		if !ok {
			// Bounded control flow violated: annotate, stop this path
			// (Line 13 of Algorithm 1).
			e.g.Annotate(inst.Addr, hoare.AnnUnresolvedJump,
				fmt.Sprintf("rip evaluates to %v", o.Target))
			return
		}
		if !e.l.Img.InText(tgt) {
			e.g.Annotate(inst.Addr, hoare.AnnUnresolvedJump,
				fmt.Sprintf("target %#x outside executable sections", tgt))
			return
		}
		tid := e.l.vertexID(tgt, o.State)
		e.g.AddEdge(hoare.Edge{From: v.ID, To: tid, Addr: inst.Addr, Kind: o.Kind})
		e.bag = append(e.bag, workItem{rip: tgt, st: o.State, vid: tid})

	case sem.KRet:
		chk := sem.CheckReturn(o, e.g.RetSym)
		if !chk.OK {
			e.fail(StatusUnprovableRet, fmt.Sprintf("@%x: %v", inst.Addr, chk.Reasons))
			return
		}
		e.res.Returns = true
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.ExitID, Addr: inst.Addr, Kind: o.Kind})

	case sem.KCall:
		e.handleCall(v, inst, o)
	}
}

// handleCall implements the Section 4.2 call treatment.
func (e *explorer) handleCall(v *hoare.Vertex, inst x86.Inst, o sem.Outcome) {
	l := e.l
	tgt, ok := o.Resolved()
	if !ok {
		// Unresolved indirect call (column C): treated
		// overapproximatively as an unknown external function.
		e.g.Annotate(inst.Addr, hoare.AnnUnresolvedCall,
			fmt.Sprintf("call target evaluates to %v", o.Target))
		e.continueAfterCall(v, inst, o, hoare.UnresolvedCallee)
		return
	}

	if name, isPLT := l.Img.PLTName(tgt); isPLT {
		switch {
		case l.isConcurrency(name):
			e.fail(StatusConcurrency, fmt.Sprintf("@%x: call to %s", inst.Addr, name))
		case l.isTerminating(name):
			e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Addr: inst.Addr, Kind: o.Kind, Callee: name})
		default:
			obls := l.mach.CallObligations(o.State, name, inst.Addr)
			for _, obl := range obls {
				e.tr.Obligation(inst.Addr, obl)
			}
			e.g.Obligations = append(e.g.Obligations, obls...)
			e.continueAfterCall(v, inst, o, name)
		}
		return
	}

	if !l.Img.InText(tgt) {
		e.g.Annotate(inst.Addr, hoare.AnnUnresolvedCall,
			fmt.Sprintf("call target %#x outside executable sections", tgt))
		e.continueAfterCall(v, inst, o, "<unmapped>")
		return
	}

	// Internal call: context-free exploration, once per callee.
	name := fmt.Sprintf("sub_%x", tgt)
	if sname, ok := l.Img.SymbolName(tgt); ok {
		name = sname
	}
	if l.inProgress[tgt] {
		// (Mutual) recursion: the callee's summary is being computed.
		// Assume it adheres to the calling convention and may return —
		// recorded as an explicit assumption.
		e.g.Assumptions = append(e.g.Assumptions,
			fmt.Sprintf("@%x : recursive call to %s assumed to return per calling convention", inst.Addr, name))
		e.continueAfterCall(v, inst, o, name)
		return
	}
	sum := l.LiftFuncCtx(e.ctx, tgt, name)
	if sum.Status != StatusLifted {
		st := sum.Status
		if st == StatusError {
			st = StatusUnprovableRet
		}
		e.fail(st, fmt.Sprintf("@%x: callee %s: %s", inst.Addr, name, sum.Status))
		return
	}
	if !sum.Returns {
		// The callee never returns normally; the continuation is not
		// reachable (Section 4.2.2's reachability field).
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Addr: inst.Addr, Kind: o.Kind, Callee: name})
		return
	}
	e.continueAfterCall(v, inst, o, name)
}

// continueAfterCall cleans the state per the System V ABI and enqueues the
// call-site continuation.
func (e *explorer) continueAfterCall(v *hoare.Vertex, inst x86.Inst, o sem.Outcome, callee string) {
	cont := e.l.mach.CleanAfterCall(o.State, inst.Addr)
	next := inst.Next()
	tid := e.l.vertexID(next, cont)
	e.g.AddEdge(hoare.Edge{From: v.ID, To: tid, Addr: inst.Addr, Kind: o.Kind, Callee: callee})
	e.bag = append(e.bag, workItem{rip: next, st: cont, vid: tid})
}
