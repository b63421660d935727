package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The analyzers match on fully qualified names, so the tests typecheck
// small stand-ins for the real packages under their real import paths
// and wire them together with a map-backed importer. This keeps the
// tests hermetic: no export data, no dependency on the actual packages.

const coreSrc = `package core
import "context"
type Lifter struct{}
func (l *Lifter) LiftFuncCtx(ctx context.Context, addr uint64, name string) int { return 0 }
func (l *Lifter) LiftBinaryCtx(ctx context.Context, name string) int { return 0 }
`

const tripleSrc = `package triple
import "context"
func Check(ctx context.Context) int { return 0 }
`

const liftSrc = `package lift
import "context"
func Run(ctx context.Context) int { return 0 }
`

const exprSrc = `package expr
type Expr struct{}
func Word(w uint64) *Expr { return &Expr{} }
`

const obsSrc = `package obs
type Ring struct{}
type Tracer struct {
	Sink *Ring
	lift string
}
func (t *Tracer) Step(addr uint64) {
	if t == nil { return }
	_ = t.Sink
	_ = t.lift
}
`

const osSrc = `package os
func Getenv(key string) string { return "" }
func LookupEnv(key string) (string, bool) { return "", false }
func Environ() []string { return nil }
func Getpid() int { return 0 }
`

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, &types.Error{Msg: "no package " + path}
}

// typecheck parses and typechecks one file as the given import path and
// returns a ready Pass.
func typecheck(t *testing.T, path, src string, imp types.Importer) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// stubImporter typechecks the stand-in packages and serves them (plus a
// minimal context stub) to the test package under analysis.
func stubImporter(t *testing.T) mapImporter {
	t.Helper()
	imp := mapImporter{}
	ctxPass := typecheck(t, "context", `package context
type Context interface{}
func Background() Context { return nil }
`, imp)
	imp["context"] = ctxPass.Pkg
	imp["os"] = typecheck(t, "os", osSrc, imp).Pkg
	for path, src := range map[string]string{
		"repro/internal/core":   coreSrc,
		"repro/internal/triple": tripleSrc,
		"repro/internal/obs":    obsSrc,
		"repro/internal/expr":   exprSrc,
		"repro/lift":            liftSrc,
	} {
		imp[path] = typecheck(t, path, src, imp).Pkg
	}
	return imp
}

func TestAnalyzers(t *testing.T) {
	imp := stubImporter(t)
	pass := typecheck(t, "example.com/use", `package use

import (
	"context"
	"os"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/triple"
	"repro/lift"
)

func use(l *core.Lifter, tr *obs.Tracer) {
	_ = os.Getenv("A") // envread
	_ = l.LiftFuncCtx(context.Background(), 1, "f")
	_ = lift.Run(context.Background())
	_ = triple.Check(context.Background())
	_ = tr.Sink // obsnil
	tr.Step(1)
	_ = os.Getenv("A") //reprovet:ignore envread
	//reprovet:ignore
	_ = tr.Sink
	_ = os.Getenv("A") //reprovet:ignore obsnil
}
`, imp)
	diags := Run(pass, All())
	type finding struct {
		line     int
		analyzer string
	}
	var got []finding
	for _, d := range diags {
		got = append(got, finding{pass.Fset.Position(d.Pos).Line, d.Analyzer})
	}
	want := []finding{
		{1, "pkgdoc"}, // the test package deliberately has no package doc
		{13, "envread"},
		{17, "obsnil"},
		{22, "envread"}, // the obsnil-only directive must not hide envread
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCtxlessDeclarationRule(t *testing.T) {
	imp := stubImporter(t)
	// The rule covers the entrypoint packages, the front door included,
	// and their internal test variants: exported Lift*/Run*/Check*
	// declarations must take a context.Context.
	src := `package lift
import "context"
func Run(n int) int { return n }
func RunCtx(ctx context.Context) int { return 0 }
func run() {}
func ForEach(jobs, n int) {}
type T struct{}
func (T) CheckAll() {}
func (T) CheckAllCtx(ctx context.Context) {}
`
	for _, path := range []string{
		"repro/lift",
		"repro/lift [repro/lift.test]",
		"repro/internal/core",
	} {
		pass := typecheck(t, path, src, imp)
		diags := Run(pass, []*Analyzer{Ctxless})
		if len(diags) != 2 {
			t.Fatalf("%s: got %d diagnostics, want 2: %v", path, len(diags), diags)
		}
		for i, wantLine := range []int{3, 8} {
			if l := pass.Fset.Position(diags[i].Pos).Line; l != wantLine {
				t.Errorf("%s: diag %d at line %d, want %d: %s", path, i, l, wantLine, diags[i].Msg)
			}
		}
	}
	// Outside the entrypoint packages the declaration rule is silent —
	// other packages may export context-less Run/Check helpers freely.
	pass := typecheck(t, "example.com/other", `package other
func Run() {}
func CheckAll() {}
`, imp)
	if diags := Run(pass, []*Analyzer{Ctxless}); len(diags) != 0 {
		t.Fatalf("declaration rule fired outside the entrypoint packages: %v", diags)
	}
}

func TestObsnilExemptsPackageObs(t *testing.T) {
	// The stand-in obs package accesses its own fields from a method —
	// that must not fire, including for the test-variant package path.
	imp := mapImporter{}
	for _, path := range []string{obsPath, obsPath + " [" + obsPath + ".test]"} {
		pass := typecheck(t, path, obsSrc, imp)
		if diags := Run(pass, []*Analyzer{Obsnil}); len(diags) != 0 {
			t.Fatalf("%s: got %d diagnostics, want 0: %v", path, len(diags), diags)
		}
	}
}

func TestObsnilFlagsValueReceiverToo(t *testing.T) {
	imp := stubImporter(t)
	pass := typecheck(t, "example.com/val", `package val
import "repro/internal/obs"
func f(tr obs.Tracer, p *obs.Tracer) {
	_ = tr.Sink
	_ = p.Sink
}
`, imp)
	diags := Run(pass, []*Analyzer{Obsnil})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

func TestExprnewFlagsLiterals(t *testing.T) {
	imp := stubImporter(t)
	pass := typecheck(t, "example.com/lit", `package lit
import "repro/internal/expr"
func f() {
	_ = &expr.Expr{}             // exprnew: pointer literal
	_ = expr.Expr{}              // exprnew: value literal
	_ = []*expr.Expr{nil}        // fine: slice literal of pointers
	_ = map[int]*expr.Expr{}     // fine: map literal of pointers
	_ = expr.Word(1)             // fine: constructor
	_ = &expr.Expr{} //reprovet:ignore exprnew
}
`, imp)
	diags := Run(pass, []*Analyzer{Exprnew})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if l := pass.Fset.Position(d.Pos).Line; l != 4 && l != 5 {
			t.Errorf("unexpected diagnostic at line %d: %s", l, d.Msg)
		}
	}
}

func TestExprnewExemptsPackageExpr(t *testing.T) {
	imp := mapImporter{}
	pass := typecheck(t, "repro/internal/expr", exprSrc, imp)
	if diags := Run(pass, []*Analyzer{Exprnew}); len(diags) != 0 {
		t.Fatalf("interning constructors themselves must be exempt: %v", diags)
	}
}

func TestEnvreadFlagsLibraryReads(t *testing.T) {
	imp := stubImporter(t)
	src := `package lib
import "os"
var getenv = os.Getenv // envread: a function value reads too
func f() {
	_ = os.Getenv("A")       // envread
	_, _ = os.LookupEnv("A") // envread
	_ = os.Environ()         // envread
	_ = os.Getpid()          // fine: not the environment
	_ = os.Getenv("B") //reprovet:ignore envread
}
`
	pass := typecheck(t, "example.com/lib", src, imp)
	diags := Run(pass, []*Analyzer{Envread})
	var lines []int
	for _, d := range diags {
		lines = append(lines, pass.Fset.Position(d.Pos).Line)
	}
	if want := []int{3, 5, 6, 7}; fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("diagnostics at lines %v, want %v: %v", lines, want, diags)
	}
	if !strings.Contains(diags[0].Msg, "os.Getenv") {
		t.Errorf("message %q does not name the call", diags[0].Msg)
	}
	// A command reads its own environment.
	main := typecheck(t, "example.com/cmd", strings.Replace(src, "package lib", "package main", 1), imp)
	if diags := Run(main, []*Analyzer{Envread}); len(diags) != 0 {
		t.Fatalf("package main flagged: %v", diags)
	}
}

func TestEnvreadExemptsTestFiles(t *testing.T) {
	imp := stubImporter(t)
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range map[string]string{
		"lib.go":      "package lib\nfunc f() {}\n",
		"lib_test.go": "package lib\nimport \"os\"\nvar stress = os.Getenv(\"STRESS\") == \"1\"\n",
	} {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check("example.com/lib", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
	if diags := Run(pass, []*Analyzer{Envread}); len(diags) != 0 {
		t.Fatalf("a test file's environment read flagged: %v", diags)
	}
}

func TestPkgdoc(t *testing.T) {
	imp := mapImporter{}
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"documented", "// Package doc does things.\npackage doc\n", 0},
		{"undocumented", "package doc\n", 1},
		{"main", "package main\nfunc main() {}\n", 1},
		{"external test", "package doc_test\n", 0},
	}
	for _, tc := range cases {
		pass := typecheck(t, "example.com/doc", tc.src, imp)
		diags := Run(pass, []*Analyzer{Pkgdoc})
		if len(diags) != tc.want {
			t.Errorf("%s: got %d diagnostics, want %d: %v", tc.name, len(diags), tc.want, diags)
		}
		if tc.want == 1 {
			if !strings.Contains(diags[0].Msg, "package comment") {
				t.Errorf("%s: message %q does not explain the fix", tc.name, diags[0].Msg)
			}
			if p := pass.Fset.Position(diags[0].Pos); p.Line != 1 {
				t.Errorf("%s: diagnostic at line %d, want the package clause", tc.name, p.Line)
			}
		}
	}
}

func TestPkgdocAnyFileSuffices(t *testing.T) {
	// A multi-file package needs the doc on only one file.
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range map[string]string{
		"a.go": "package multi\n",
		"b.go": "// Package multi is documented here.\npackage multi\n",
	} {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{}).Check("example.com/multi", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
	if diags := Run(pass, []*Analyzer{Pkgdoc}); len(diags) != 0 {
		t.Fatalf("documented multi-file package flagged: %v", diags)
	}
}

func TestRunOrdersDeterministically(t *testing.T) {
	imp := stubImporter(t)
	src := `package ord
import (
	"os"
	"repro/internal/obs"
)
func f(tr *obs.Tracer) {
	_ = tr.Sink
	_ = os.Getenv("x")
	_ = tr.Sink
}
`
	var prev []Diagnostic
	for i := 0; i < 5; i++ {
		pass := typecheck(t, "example.com/ord", src, imp)
		diags := Run(pass, All())
		if len(diags) != 4 { // pkgdoc fires too: ord has no package doc
			t.Fatalf("got %d diagnostics", len(diags))
		}
		if prev != nil {
			for j := range diags {
				if diags[j].Analyzer != prev[j].Analyzer || diags[j].Msg != prev[j].Msg {
					t.Fatalf("run %d reordered: %v vs %v", i, diags, prev)
				}
			}
		}
		prev = diags
	}
}
