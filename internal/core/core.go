// Package core implements the paper's primary contribution: Hoare Graph
// extraction from x86-64 binaries (Algorithm 1) with the extensions of
// Section 4.2 — context-free internal function calls with symbolic return
// addresses, System V cleaning for unknown external functions, reachability
// of call-site continuations, and the compatibility refinement that keeps
// states with different code-pointer immediates apart. While extracting,
// the lifter verifies the three sanity properties: return address
// integrity, bounded control flow and calling convention adherence.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/ptr"
	"repro/internal/sem"
)

// Status classifies the outcome of lifting one function or binary, in the
// shape of Table 1's w + x + y + z decomposition.
type Status uint8

// The lifting outcomes.
const (
	StatusLifted        Status = iota // an HG was produced (w)
	StatusUnprovableRet               // return address integrity or calling convention failed (x)
	StatusConcurrency                 // calls multithreading primitives, out of scope (y)
	StatusTimeout                     // exploration budget exhausted (z)
	StatusError                       // decode/fetch failure
	StatusPanic                       // the lift panicked (recovered by the pipeline)
	StatusCancelled                   // the lift's context was cancelled mid-exploration
)

// String renders the status as in Table 1's legend.
func (s Status) String() string {
	switch s {
	case StatusLifted:
		return "lifted"
	case StatusUnprovableRet:
		return "unprovable-return-address"
	case StatusConcurrency:
		return "concurrency"
	case StatusTimeout:
		return "timeout"
	case StatusPanic:
		return "panic"
	case StatusCancelled:
		return "cancelled"
	default:
		return "error"
	}
}

// Config tunes the lifter.
type Config struct {
	// Sem configures the predicate transformer.
	Sem sem.Config
	// MaxStates bounds the number of exploration steps per function; when
	// exceeded the function is reported as a timeout (the paper used a
	// 4-hour wall-clock limit; a step budget is deterministic).
	MaxStates int
	// NoJoin disables state joining entirely (ablation: every visit
	// explores a fresh state; MaxStates then bounds the blow-up).
	NoJoin bool
	// JoinCodePointers disables the compatibility extension and joins
	// states even when they hold different code-pointer immediates
	// (ablation: loses indirection resolution).
	JoinCodePointers bool
	// PointerFacts enables the pointer-analysis pre-pass (internal/ptr):
	// before exploring a function the lifter runs a whole-function abstract
	// interpretation and feeds the resulting per-function fact table to the
	// semantics, so region pairs the pre-pass already related are answered
	// without consulting the decision procedure and without forking the
	// memory model. Separation hypotheses the pre-pass emits are recorded
	// in the graph's assumption list like any other separation assumption.
	// Opt-in: hypotheses deliberately assume apart distinct argument
	// pointers (rdi vs rsi), which hides intentional aliasing.
	PointerFacts bool
	// Terminating lists external functions that never return.
	Terminating []string
	// ConcurrencyPrefixes lists external-name prefixes that put a
	// function out of scope (multithreading).
	ConcurrencyPrefixes []string
}

// DefaultConfig returns the configuration used for the paper's
// experiments.
func DefaultConfig() Config {
	return Config{
		Sem:       sem.DefaultConfig(),
		MaxStates: 40000,
		Terminating: []string{
			"exit", "_exit", "abort", "err", "errx",
			"__stack_chk_fail", "__assert_fail", "pthread_exit",
		},
		ConcurrencyPrefixes: []string{"pthread_"},
	}
}

// FuncResult is the outcome of lifting one function.
type FuncResult struct {
	Name     string
	Addr     uint64
	Status   Status
	Reasons  []string
	Graph    *hoare.Graph
	Returns  bool
	Duration time.Duration
	Steps    int
}

// Stats returns the graph statistics (zero value when lifting failed).
func (r *FuncResult) Stats() hoare.Stats {
	if r.Graph == nil {
		return hoare.Stats{}
	}
	return r.Graph.Stats()
}

// Lifter extracts Hoare graphs from one binary image. Internal functions
// are explored context-free, each exactly once, with results cached as
// summaries (Section 4.2.2).
type Lifter struct {
	Img  *image.Image
	Cfg  Config
	mach *sem.Machine

	summaries  map[uint64]*FuncResult
	addrIDs    map[uint64]string // vertexID's address part, formatted once
	inProgress map[uint64]bool
	ptrCache   map[uint64]*ptr.Analysis
}

// New returns a lifter over the image.
func New(img *image.Image, cfg Config) *Lifter {
	return &Lifter{
		Img:        img,
		Cfg:        cfg,
		mach:       sem.NewMachine(img, cfg.Sem),
		summaries:  map[uint64]*FuncResult{},
		addrIDs:    map[uint64]string{},
		inProgress: map[uint64]bool{},
		ptrCache:   map[uint64]*ptr.Analysis{},
	}
}

// pointerAnalysis returns the pre-pass result for the function at addr,
// computing it on first use (one analysis per function, like the summary
// cache — callees re-entered through later call sites reuse their table).
func (l *Lifter) pointerAnalysis(addr uint64, name string) *ptr.Analysis {
	if an, ok := l.ptrCache[addr]; ok {
		return an
	}
	an := ptr.Analyze(l.Img, addr)
	l.ptrCache[addr] = an
	l.Cfg.Sem.Tracer.PtrAnalyze(name, addr, an.Stats.Proven, an.Stats.Hypotheses, an.Stats.Wall)
	return an
}

// isTerminating reports whether the named external never returns.
func (l *Lifter) isTerminating(name string) bool {
	for _, t := range l.Cfg.Terminating {
		if t == name {
			return true
		}
	}
	return false
}

// isConcurrency reports whether the named external puts the caller out of
// scope.
func (l *Lifter) isConcurrency(name string) bool {
	for _, p := range l.Cfg.ConcurrencyPrefixes {
		if strings.HasPrefix(name, p) && !l.isTerminating(name) {
			return true
		}
	}
	return false
}

// RetSymFor returns the symbolic return address variable for a function.
func RetSymFor(addr uint64) expr.Var {
	return expr.Var(fmt.Sprintf("S_%x", addr))
}

// LiftFuncCtx lifts the function at addr, reusing a cached summary if the
// function was already explored (context-free treatment: "it will always
// start in the exact same state and therefore exploration happens only
// once"). Cancelling the context stops the exploration cooperatively at
// its next step: a cancelled context yields StatusCancelled, an expired
// deadline StatusTimeout — the same mechanism the pipeline's per-lift
// budget uses.
func (l *Lifter) LiftFuncCtx(ctx context.Context, addr uint64, name string) *FuncResult {
	if r, ok := l.summaries[addr]; ok {
		return r
	}
	l.inProgress[addr] = true
	r := l.explore(ctx, addr, name)
	delete(l.inProgress, addr)
	l.summaries[addr] = r
	return r
}

// BinaryResult aggregates lifting a whole binary from its entry point,
// including all internal functions reached through calls.
type BinaryResult struct {
	Name     string
	Status   Status
	Entry    *FuncResult
	Funcs    []*FuncResult
	Stats    hoare.Stats
	Duration time.Duration
}

// LiftBinaryCtx lifts the binary from its entry point, exploring all
// reachable instructions including internal function calls (Table 1,
// upper part). Cancellation propagates into every callee exploration.
func (l *Lifter) LiftBinaryCtx(ctx context.Context, name string) *BinaryResult {
	start := time.Now()
	entry := l.LiftFuncCtx(ctx, l.Img.Entry(), name)
	res := &BinaryResult{Name: name, Status: entry.Status, Entry: entry, Duration: time.Since(start)}
	for _, fr := range l.Summaries() {
		res.Funcs = append(res.Funcs, fr)
		res.Stats.Add(fr.Stats())
		if fr.Status != StatusLifted && res.Status == StatusLifted {
			res.Status = fr.Status
		}
	}
	return res
}

// Counters returns the machine's solver and memory-model activity counters
// accumulated across every function this lifter explored.
func (l *Lifter) Counters() sem.Counters { return l.mach.Counters() }

// Summaries returns all function results computed so far, ordered by
// address.
func (l *Lifter) Summaries() []*FuncResult {
	out := make([]*FuncResult, 0, len(l.summaries))
	for _, fr := range l.summaries {
		out = append(out, fr)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Addr < out[i].Addr {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
