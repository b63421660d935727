package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// entrypointPkgs are the packages whose exported lift/prove entrypoints
// must thread a context.Context: the lifter, the Step-2 checker and the
// front door over both (repro/lift, whose Run, One and Check every command
// calls, and which schedules the lifts itself). The four context-less
// wrappers (Lifter.LiftFunc, Lifter.LiftBinary, pipeline.Run,
// triple.CheckGraph) were deleted once every caller had migrated; this
// rule keeps them deleted — and keeps a context-less Run or Check off the
// front door — by flagging any reintroduction at the declaration, not the
// call site.
var entrypointPkgs = map[string]bool{
	"repro/internal/core":   true,
	"repro/internal/triple": true,
	"repro/lift":            true,
}

// entrypointPrefixes mark the declaration names the rule covers: the
// verbs that start a lift, a scheduled run, or a Step-2 check.
var entrypointPrefixes = []string{"Lift", "Run", "Check"}

// Ctxless enforces the context-aware entrypoint API: inside the core,
// triple and lift packages, no exported Lift*/Run*/Check* function or
// method may omit a context.Context parameter (cancellation and deadlines
// must reach every exploration).
var Ctxless = &Analyzer{
	Name: "ctxless",
	Doc:  "forbids exported non-context lift/check entrypoints",
	Run:  runCtxless,
}

func runCtxless(pass *Pass) []Diagnostic {
	// Test variants typecheck under paths like
	// "repro/internal/core [repro/internal/core.test]".
	if p, _, _ := strings.Cut(pass.Pkg.Path(), " ["); !entrypointPkgs[p] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !isEntrypointName(fd.Name.Name) {
				continue
			}
			if hasContextParam(pass, fd) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: fd.Name.Pos(),
				Msg: fmt.Sprintf("exported entrypoint %s takes no context.Context; lift/run/check entrypoints must be cancellable", fd.Name.Name),
			})
		}
	}
	return diags
}

// isEntrypointName reports whether an exported declaration name falls
// under the entrypoint rule (Lift*, Run*, Check*). Test entrypoints
// (Test*, Benchmark*, Fuzz*) never match the prefixes, so _test files
// need no special case.
func isEntrypointName(name string) bool {
	for _, p := range entrypointPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// hasContextParam reports whether any parameter's type is
// context.Context.
func hasContextParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}
