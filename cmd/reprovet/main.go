// Command reprovet is a go vet -vettool driver for the repo's custom
// analyzers (internal/analysis): ctxless, envread, exprnew, obsnil, and pkgdoc. It reimplements
// the small slice of the x/tools unitchecker protocol that cmd/go
// speaks, on the standard library alone, so the repo stays free of
// external dependencies.
//
// The protocol: cmd/go probes the tool with -V=full (version for the
// build cache key) and -flags (supported analyzer flags, JSON), then
// invokes it once per package with a JSON config file argument naming
// the source files, the import map, and the compiler export data of
// every dependency. The tool typechecks the package from that config,
// runs the analyzers, prints findings as file:line:col: messages, and
// exits non-zero if any fired.
//
// Usage (normally via scripts/check.sh):
//
//	go build -o reprovet ./cmd/reprovet
//	go vet -vettool=$(pwd)/reprovet ./...
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

// Config mirrors the fields of the unitchecker config JSON that cmd/go
// writes for each package. Unknown fields are ignored.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full":
			// cmd/go keys its cache on this line; bump the version when
			// analyzer behaviour changes to invalidate cached results.
			fmt.Println("reprovet version v1.5.0")
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=reprovet ./... (reprovet is not run directly)")
		os.Exit(2)
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			typecheckFailed(&cfg, err)
		}
		files = append(files, f)
	}

	// Dependencies come as compiler export data: resolve the vendored/
	// canonical path through ImportMap, then the .a/.x file through
	// PackageFile.
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		canon := path
		if m, ok := cfg.ImportMap[path]; ok {
			canon = m
		}
		file, ok := cfg.PackageFile[canon]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		typecheckFailed(&cfg, err)
	}

	// The facts file must exist even when empty — dependents' runs list
	// it in PackageVetx and cmd/go checks it into the build cache.
	writeVetx(&cfg)
	if cfg.VetxOnly {
		return
	}

	pass := &analysis.Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
	diags := analysis.Run(pass, analysis.All())
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Msg, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func writeVetx(cfg *Config) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, []byte("reprovet-facts-v1\n"), 0o666); err != nil {
		fatal(err)
	}
}

// typecheckFailed ends the run after a parse or type error. cmd/go
// normally asks vet tools to succeed in that case (the compiler will
// report the real error with better context), but the facts file still
// has to be written or dependent packages fail on the missing input.
func typecheckFailed(cfg *Config, err error) {
	writeVetx(cfg)
	if cfg.SucceedOnTypecheckFailure {
		os.Exit(0)
	}
	fatal(fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprovet:", err)
	os.Exit(1)
}
