package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// Envread flags reads of the process environment (os.Getenv, os.LookupEnv,
// os.Environ) in the non-test files of library packages. A setting that
// changes what a lift or a check does belongs in an option, a flag or a
// config field, where a reader and a store key can see it. Commands
// (package main) read their own environment, and tests may gate on it.
var Envread = &Analyzer{
	Name: "envread",
	Doc:  "flags environment reads outside commands and tests",
	Run:  runEnvread,
}

func runEnvread(pass *Pass) []Diagnostic {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	var diags []Diagnostic
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			continue
		}
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
		default:
			continue
		}
		if strings.HasSuffix(pass.Fset.Position(id.Pos()).Filename, "_test.go") {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos: id.Pos(),
			Msg: fmt.Sprintf("os.%s reads the environment in a library package; make the setting an option, a flag or a config field", fn.Name()),
		})
	}
	return diags
}
