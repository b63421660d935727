// Package analysis is a deliberately small, stdlib-only subset of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// typechecked package (a Pass) and reports Diagnostics. It exists so the
// repo can ship custom vet passes without a dependency on x/tools — the
// driver side of the go vet -vettool protocol lives in cmd/reprovet.
//
// Five analyzers are registered:
//
//	ctxless — forbids reintroducing exported non-context Lift*/Run*/Check*
//	          entrypoints in the core/pipeline/triple packages and the
//	          repro/lift front door (the four deprecated context-less
//	          wrappers were deleted once callers migrated; the rule keeps
//	          them deleted) and flags calls to any wrapper registered as
//	          Deprecated (none at present — the checkpoint wrappers
//	          finished their one compatibility release and are deleted).
//	envread — flags os.Getenv, os.LookupEnv and os.Environ in the
//	          non-test files of library packages: a setting that changes
//	          a lift or a check is an option, a flag or a config field.
//	exprnew — flags expr.Expr composite literals outside package expr;
//	          hand-built expressions bypass the intern table and break
//	          the pointer-identity invariant behind expr.Equal.
//	obsnil  — flags direct field access on *obs.Tracer outside package
//	          obs; the tracer is nil when tracing is disabled, so only
//	          its nil-safe methods may be used.
//	pkgdoc  — flags packages with no package-level doc comment; external
//	          test packages (_test variants) are exempt.
//
// A diagnostic is suppressed by a directive comment on the same line or
// the line directly above it:
//
//	//reprovet:ignore ctxless          — suppress one analyzer
//	//reprovet:ignore ctxless obsnil   — suppress several
//	//reprovet:ignore                  — suppress all
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass carries one typechecked package through the analyzers.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Diagnostic is one finding, positioned in the package's file set.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Msg      string
}

// Analyzer is one named check over a Pass. Run may leave the Analyzer
// field of its diagnostics empty; the driver fills it in.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// All returns every registered analyzer.
func All() []*Analyzer { return []*Analyzer{Ctxless, Envread, Exprnew, Obsnil, Pkgdoc} }

// Run applies the analyzers to the pass, drops directive-suppressed
// findings, and returns the rest ordered by position then analyzer.
func Run(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	sup := collectIgnores(pass)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(pass) {
			d.Analyzer = a.Name
			if sup.covers(pass.Fset.Position(d.Pos), a.Name) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pass.Fset.Position(out[i].Pos), pass.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

const ignoreDirective = "//reprovet:ignore"

// ignores maps file → line → analyzer names suppressed there (nil set
// means all analyzers).
type ignores map[string]map[int][]string

func collectIgnores(pass *Pass) ignores {
	ig := ignores{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := ig[p.Filename]
				if m == nil {
					m = map[int][]string{}
					ig[p.Filename] = m
				}
				m[p.Line] = strings.Fields(rest)
			}
		}
	}
	return ig
}

// covers reports whether a directive on the diagnostic's line, or the
// line directly above it, names the analyzer (or names nothing, which
// suppresses everything).
func (ig ignores) covers(p token.Position, analyzer string) bool {
	m := ig[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		names, ok := m[line]
		if !ok {
			continue
		}
		if len(names) == 0 {
			return true
		}
		for _, n := range names {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}
