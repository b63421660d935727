// Package hglint statically analyses extracted Hoare graphs for
// well-formedness — the "typechecker before the prover". The expensive
// Step-2 Hoare-triple check assumes a structurally sound graph: every
// edge ends at a real vertex, terminal vertices are terminal, the memory
// forests encode satisfiable region relations, and the invariants carry
// the clauses the sanity properties rest on (the return-address clause,
// bounded indirect control flow). A graph violating any of these would
// surface deep inside triple.Check as an opaque theorem failure; hglint
// catches it first, cheaply, with a named diagnostic.
//
// The analyzer is a pluggable rule registry. Each Rule inspects one
// aspect of the graph through a shared Ctx (which lazily computes
// reachability and memoizes solver verdicts) and reports Diagnostics with
// a severity. Lint runs every enabled rule and returns a Report whose
// diagnostic order is deterministic: errors first, then warnings, then
// info, each sorted by rule name, vertex, address and message — so a
// report is directly comparable across runs and serializations.
//
// Rule catalog at a glance (see the rules_*.go files):
//
//	structural    hg-entry hg-dangling-edge hg-terminal-out-edge
//	              hg-call-callee hg-no-successor hg-edge-inst
//	              hg-unreachable(warn)
//	memory model  mm-empty-tree mm-dup-region mm-cycle
//	              mm-partial-overlap mm-relation-refuted
//	predicate     pred-range-inverted pred-range-vacuous(warn)
//	              pred-noncanonical pred-bot(warn)
//	              hg-ret-integrity hg-unbounded-jump
//	solver        pred-inconsistent
package hglint

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/solver"
)

// Severity classifies a diagnostic. Errors make a graph unfit for Step 2;
// warnings flag suspicious-but-sound shapes; info is advisory.
type Severity uint8

// The severities, ordered so higher is more severe.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	default:
		return "info"
	}
}

// MarshalText renders the severity for JSON encoding.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = SevError
	case "warn":
		*s = SevWarn
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("hglint: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding: a named rule violation at a vertex or
// instruction address.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Vertex   string   `json:"vertex,omitempty"`
	Addr     uint64   `json:"addr,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic in a grep-friendly single line.
func (d Diagnostic) String() string {
	loc := ""
	if d.Vertex != "" {
		loc = " vertex " + d.Vertex
	}
	if d.Addr != 0 {
		loc += fmt.Sprintf(" @%#x", d.Addr)
	}
	return fmt.Sprintf("%s: %s:%s %s", d.Severity, d.Rule, loc, d.Msg)
}

// Rule is one registered well-formedness check.
type Rule struct {
	// Name identifies the rule in diagnostics and in Options.Rules.
	Name string
	// Severity is the severity every diagnostic of this rule carries.
	Severity Severity
	// Doc is a one-line description for the rule catalog.
	Doc string
	// Check inspects the graph via ctx and reports violations.
	Check func(ctx *Ctx)
}

// registry holds the rules in registration order (the rules_*.go files'
// init functions, which Go runs in file-name order — deterministic).
var registry []Rule

// Register adds a rule to the registry. It panics on a duplicate name —
// rules are registered from init functions, so a duplicate is a
// programming error.
func Register(r Rule) {
	for _, have := range registry {
		if have.Name == r.Name {
			panic("hglint: duplicate rule " + r.Name)
		}
	}
	registry = append(registry, r)
}

// Rules returns the registered rule catalog sorted by name.
func Rules() []Rule {
	out := append([]Rule(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// options is the resolved option set of one Lint call.
type options struct {
	cache *solver.Cache
	only  map[string]bool
}

// Option tunes a Lint call.
type Option func(*options)

// WithCache memoizes the solver-backed rules' Compare calls in the given
// cache — pass the pipeline's shared cache so lint verdicts reuse (and
// warm) the same memo table as the lift itself.
func WithCache(c *solver.Cache) Option {
	return func(o *options) { o.cache = c }
}

// Only restricts the run to the named rules (unknown names are ignored;
// an empty list means all rules).
func Only(names ...string) Option {
	return func(o *options) {
		if len(names) == 0 {
			return
		}
		o.only = map[string]bool{}
		for _, n := range names {
			o.only[n] = true
		}
	}
}

// Ctx is the shared analysis context one rule set runs in. Rules read the
// graph and report through it; the sorted vertex and edge lists,
// reachability sets and memory classes are computed lazily, once per Lint
// call, and shared across rules.
type Ctx struct {
	// Graph is the graph under analysis.
	Graph *hoare.Graph

	cache     *solver.Cache
	rule      *Rule
	diags     []Diagnostic
	vertices  []*hoare.Vertex
	edges     []hoare.Edge
	sortedOK  bool
	fwd       map[hoare.VertexID]bool
	toExit    map[hoare.VertexID]bool
	succs     map[hoare.VertexID][]hoare.VertexID
	succsOK   bool
	classes   [][]*hoare.Vertex
	classesOK bool

	// memBuf is pred-inconsistent's scratch list of a vertex's memory
	// clauses, reused across the vertices of one Lint call.
	memBuf []pred.MemEntry
}

// Vertices returns the graph's vertices in hoare.Graph.SortedVertices
// order, sorted once per Lint call. Rules must not modify the slice.
func (c *Ctx) Vertices() []*hoare.Vertex {
	c.sortOnce()
	return c.vertices
}

// Edges returns the graph's edges in hoare.Graph.SortedEdges order, sorted
// once per Lint call. Rules must not modify the slice.
func (c *Ctx) Edges() []hoare.Edge {
	c.sortOnce()
	return c.edges
}

func (c *Ctx) sortOnce() {
	if !c.sortedOK {
		c.vertices = c.Graph.SortedVertices()
		c.edges = c.Graph.SortedEdges()
		c.sortedOK = true
	}
}

// Reportf records one diagnostic for the running rule. vertex and addr
// may be zero when the finding is graph-global.
func (c *Ctx) Reportf(vertex hoare.VertexID, addr uint64, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Rule:     c.rule.Name,
		Severity: c.rule.Severity,
		Vertex:   string(vertex),
		Addr:     addr,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Compare answers a solver query, through the shared memo cache when one
// was supplied.
func (c *Ctx) Compare(p *pred.Pred, r0, r1 solver.Region) solver.Result {
	if c.cache != nil {
		res, _ := c.cache.Compare(p, r0, r1)
		return res
	}
	return solver.Compare(p, r0, r1)
}

// successors builds (once) the forward adjacency of the graph.
func (c *Ctx) successors() map[hoare.VertexID][]hoare.VertexID {
	if !c.succsOK {
		c.succs = map[hoare.VertexID][]hoare.VertexID{}
		for _, e := range c.Graph.Edges {
			c.succs[e.From] = append(c.succs[e.From], e.To)
		}
		c.succsOK = true
	}
	return c.succs
}

// Reachable returns the set of vertices reachable from the entry vertex
// along edges (computed once, shared by rules).
func (c *Ctx) Reachable() map[hoare.VertexID]bool {
	if c.fwd == nil {
		c.fwd = map[hoare.VertexID]bool{}
		if _, ok := c.Graph.Vertices[c.Graph.EntryID]; ok {
			work := []hoare.VertexID{c.Graph.EntryID}
			c.fwd[c.Graph.EntryID] = true
			succs := c.successors()
			for len(work) > 0 {
				v := work[len(work)-1]
				work = work[:len(work)-1]
				for _, t := range succs[v] {
					if !c.fwd[t] {
						c.fwd[t] = true
						work = append(work, t)
					}
				}
			}
		}
	}
	return c.fwd
}

// ReachesExit returns the set of vertices from which ExitID is reachable
// (reverse reachability, computed once).
func (c *Ctx) ReachesExit() map[hoare.VertexID]bool {
	if c.toExit == nil {
		c.toExit = map[hoare.VertexID]bool{}
		preds := map[hoare.VertexID][]hoare.VertexID{}
		for _, e := range c.Graph.Edges {
			preds[e.To] = append(preds[e.To], e.From)
		}
		work := []hoare.VertexID{hoare.ExitID}
		c.toExit[hoare.ExitID] = true
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range preds[v] {
				if !c.toExit[p] {
					c.toExit[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return c.toExit
}

// Report is the outcome of linting one graph.
type Report struct {
	// Func and Addr identify the analysed graph.
	Func string `json:"func"`
	Addr uint64 `json:"addr"`
	// Diagnostics holds every finding in deterministic order: by severity
	// (errors first), then rule name, vertex, address, message.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int { return r.Count(SevError) }

// HasErrors reports whether any diagnostic is an error — the fail-fast
// signal the pipeline and Step 2 precheck act on.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Clean reports whether the graph produced no diagnostics at all.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

// JSON renders the report as indented JSON (the -json output of
// cmd/hglint).
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A Report contains only marshalable fields; this is unreachable.
		panic("hglint: " + err.Error())
	}
	return b
}

// String renders the report as human-readable lines, one per diagnostic.
func (r *Report) String() string {
	if r.Clean() {
		return fmt.Sprintf("%s: clean\n", r.Func)
	}
	out := ""
	for _, d := range r.Diagnostics {
		out += fmt.Sprintf("%s: %s\n", r.Func, d)
	}
	return out
}

// Lint runs every registered (or selected) rule over the graph and
// returns the report. A nil graph yields a single hg-entry error rather
// than a panic, so callers may lint unconditionally.
func Lint(g *hoare.Graph, opts ...Option) *Report {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if g == nil {
		return &Report{Diagnostics: []Diagnostic{{
			Rule: "hg-entry", Severity: SevError, Msg: "no graph",
		}}}
	}
	ctx := &Ctx{Graph: g, cache: o.cache}
	for i := range registry {
		r := &registry[i]
		if o.only != nil && !o.only[r.Name] {
			continue
		}
		ctx.rule = r
		r.Check(ctx)
	}
	sort.SliceStable(ctx.diags, func(i, j int) bool {
		a, b := ctx.diags[i], ctx.diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Msg < b.Msg
	})
	return &Report{Func: g.FuncName, Addr: g.FuncAddr, Diagnostics: ctx.diags}
}
