// Command hgprove runs Step 2 of the paper: it lifts a binary (or one
// function) and independently re-verifies every vertex of the extracted
// Hoare graph as a Hoare triple — one mutually independent theorem per
// vertex, checked in parallel. In the one-graph modes, -thy also writes
// the graph's Isabelle/HOL-style theory export.
//
// Usage:
//
//	hgprove binary.elf
//	hgprove -func addr|name [-thy out.thy] binary.elf
//	hgprove -hg graph.hgcs [-thy out.thy] binary.elf
//
// With -hg it re-verifies a saved graph instead of lifting: the HGCS graph
// file hglift -o writes. -hg and -func together, and -thy without either,
// are usage errors. The three modes share one path: the graphs are lifted
// through lift.One (or loaded), each is linted by hglint, and lift.Check
// proves its theorems. A saved graph with hglint errors is refused
// before Step 2 runs; a lifted one counts as a failure of its function,
// and the check moves on to the next function.
//
// The run stops cleanly on SIGINT/SIGTERM: theorems not yet checked are
// skipped. The exit status is non-zero unless every theorem is proven or
// assumed — a failed or skipped theorem, or a malformed graph, fails the
// run in every mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/triple"
	"repro/lift"
)

func main() {
	funcSpec := flag.String("func", "", "verify a single function: hex address or symbol name")
	thyOut := flag.String("thy", "", "write the theory export to this file (requires -func or -hg)")
	hgIn := flag.String("hg", "", "verify a graph saved by hglift -o (an HGCS graph file) against the binary")
	flag.Parse()
	oneGraph := *funcSpec != "" || *hgIn != ""
	if flag.NArg() != 1 || *funcSpec != "" && *hgIn != "" || *thyOut != "" && !oneGraph {
		fmt.Fprintln(os.Stderr, "usage: hgprove binary.elf\n       hgprove -func addr|name [-thy out.thy] binary.elf\n       hgprove -hg graph.hgcs [-thy out.thy] binary.elf")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := image.Load(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	title, graphs := load(ctx, img, flag.Arg(0), *funcSpec, *hgIn)
	// A binary's failures carry their function's name; a single graph's
	// carry only the vertex.
	qualify := !oneGraph

	var proven, assumed, failed, skipped, malformed int
	var failures []string
	for _, g := range graphs {
		lrep := hglint.Lint(g)
		for _, d := range lrep.Diagnostics {
			fmt.Fprintf(os.Stderr, "hgprove: lint: %s\n", d)
		}
		if lrep.HasErrors() {
			// A malformed graph would only surface inside the checker as
			// opaque failures. A saved one is refused outright; a
			// lifted one fails its own function, and the check moves on.
			if *hgIn != "" {
				fatal(fmt.Errorf("%s: %s: %d hglint errors; not running Step 2", *hgIn, g.FuncName, lrep.Errors()))
			}
			malformed++
			failures = append(failures, fmt.Sprintf("%s: malformed graph: %d hglint errors", g.FuncName, lrep.Errors()))
			continue
		}
		rep := lift.Check(ctx, img, g)
		proven += rep.Proven
		assumed += rep.Assumed
		failed += rep.Failed
		skipped += rep.Skipped
		for _, th := range rep.Sorted() {
			if th.Verdict != triple.Failed {
				continue
			}
			label := string(th.Vertex)
			if qualify {
				label = g.FuncName + "/" + label
			}
			failures = append(failures, fmt.Sprintf("%s: %s", label, th.Reason))
		}
	}
	fmt.Printf("%s: %d proven, %d assumed, %d failed\n", title, proven, assumed, failed)
	for _, f := range failures {
		fmt.Println("  FAILED", f)
	}
	if skipped > 0 {
		fmt.Printf("  SKIPPED %d theorems: %v\n", skipped, ctx.Err())
	}
	if *thyOut != "" {
		if err := os.WriteFile(*thyOut, []byte(triple.ExportTheory(graphs[0], graphs[0].FuncName)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("theory written to", *thyOut)
	}
	if failed > 0 || skipped > 0 || malformed > 0 {
		os.Exit(1)
	}
}

// load returns the graphs one mode checks and the name its summary line
// carries: the saved graph (-hg), the lifted function (-func), or every
// function lifted from the entry point of the binary at path. A graph file
// that cannot be read or parsed, or a binary that does not lift, is fatal,
// and the error names the file.
func load(ctx context.Context, img *image.Image, path, funcSpec, hgIn string) (string, []*hoare.Graph) {
	switch {
	case hgIn != "":
		hg, err := os.ReadFile(hgIn)
		if err != nil {
			fatal(err)
		}
		g, err := hgstore.LoadGraph(img, hg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", hgIn, err))
		}
		return g.FuncName, []*hoare.Graph{g}
	case funcSpec != "":
		addr, name, err := img.ResolveFunc(funcSpec)
		if err != nil {
			fatal(err)
		}
		res := lift.One(ctx, lift.Func(name, img, addr))
		if res.Status != core.StatusLifted {
			fatal(fmt.Errorf("function %s not lifted: %s", name, res.Status))
		}
		return name, []*hoare.Graph{res.Func.Graph}
	}
	res := lift.One(ctx, lift.Binary("binary", img))
	if res.Status != core.StatusLifted {
		fatal(fmt.Errorf("%s: binary not lifted: %s", path, res.Status))
	}
	var graphs []*hoare.Graph
	for _, fr := range res.Binary.Funcs {
		if fr.Graph != nil {
			graphs = append(graphs, fr.Graph)
		}
	}
	return "binary", graphs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgprove:", err)
	os.Exit(1)
}
