// Command hgprove runs Step 2 of the paper: it lifts a binary (or one
// function) and independently re-verifies every vertex of the extracted
// Hoare graph as a Hoare triple — one mutually independent theorem per
// vertex, checked in parallel. With -thy it also writes the Isabelle/HOL-
// style theory export.
//
// Usage:
//
//	hgprove [-func addr|name] [-thy out.thy] binary.elf
//	hgprove -hg graph binary.elf
//
// With -hg it re-verifies a previously exported graph instead of lifting:
// the .hg text format or the compact binary container (hglift -obin),
// detected by magic. The graph is linted first, and a graph with hglint
// errors is refused before Step 2 runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/sem"
	"repro/internal/triple"
)

func main() {
	funcSpec := flag.String("func", "", "verify a single function: hex address or symbol name")
	thyOut := flag.String("thy", "", "write the theory export to this file")
	hgIn := flag.String("hg", "", "verify a previously exported graph (.hg text or compact binary, auto-detected) against the binary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hgprove [-func addr|name] [-thy out.thy] [-hg graph] binary.elf")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *hgIn != "" {
		im, err := image.Load(data)
		if err != nil {
			fatal(err)
		}
		hg, err := os.ReadFile(*hgIn)
		if err != nil {
			fatal(err)
		}
		g, err := hgstore.LoadGraph(im, hg)
		if err != nil {
			fatal(err)
		}
		// Fail-fast precheck: an externally supplied graph may be
		// malformed in ways the theorem checker would only report as
		// opaque failures. Lint it first and refuse broken input.
		lrep := hglint.Lint(g)
		for _, d := range lrep.Diagnostics {
			fmt.Fprintf(os.Stderr, "hgprove: lint: %s\n", d)
		}
		if lrep.HasErrors() {
			fatal(fmt.Errorf("%s: %d hglint errors; not running Step 2", g.FuncName, lrep.Errors()))
		}
		rep := triple.Check(context.Background(), im, g, sem.DefaultConfig(), triple.Workers(4))
		fmt.Printf("%s: %d proven, %d assumed, %d failed\n", g.FuncName, rep.Proven, rep.Assumed, rep.Failed)
		for _, th := range rep.Sorted() {
			if th.Verdict == triple.Failed {
				fmt.Printf("  FAILED %s: %s\n", th.Vertex, th.Reason)
			}
		}
		if rep.Failed != 0 {
			os.Exit(1)
		}
		return
	}

	if *funcSpec != "" {
		addr, err := resolveFunc(data, *funcSpec)
		if err != nil {
			fatal(err)
		}
		fr, vr, err := repro.VerifyFunction(data, addr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d proven, %d assumed, %d failed\n", fr.Name, vr.Proven, vr.Assumed, vr.Failed)
		for _, f := range vr.Failures {
			fmt.Println("  FAILED", f)
		}
		if *thyOut != "" {
			if err := os.WriteFile(*thyOut, []byte(fr.Theory), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("theory written to", *thyOut)
		}
		if !vr.AllProven() {
			os.Exit(1)
		}
		return
	}

	vr, err := repro.VerifyBinary(data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("binary: %d proven, %d assumed, %d failed\n", vr.Proven, vr.Assumed, vr.Failed)
	for _, f := range vr.Failures {
		fmt.Println("  FAILED", f)
	}
	if !vr.AllProven() {
		os.Exit(1)
	}
}

func resolveFunc(data []byte, spec string) (uint64, error) {
	if addr, err := strconv.ParseUint(spec, 0, 64); err == nil {
		return addr, nil
	}
	syms, err := repro.FuncSymbols(data)
	if err != nil {
		return 0, err
	}
	if addr, ok := syms[spec]; ok {
		return addr, nil
	}
	return 0, fmt.Errorf("hgprove: no function %q", spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgprove:", err)
	os.Exit(1)
}
