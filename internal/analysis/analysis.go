// Package analysis is a deliberately small, stdlib-only subset of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// typechecked package (a Pass) and reports Diagnostics. It exists so the
// repo can ship custom vet passes without a dependency on x/tools — the
// driver side of the go vet -vettool protocol lives in cmd/reprovet.
//
// Five analyzers are registered:
//
//	ctxless — forbids reintroducing exported non-context Lift*/Run*/Check*
//	          entrypoints in the core and triple packages and the
//	          repro/lift front door (the four context-less wrappers were
//	          deleted once callers migrated; the rule keeps them deleted).
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
// No directive suppresses a diagnostic: a finding is fixed in the code.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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

// Run applies the analyzers to the pass and returns their findings
// ordered by position then analyzer.
func Run(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(pass) {
			d.Analyzer = a.Name
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
