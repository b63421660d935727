// Command hglint statically analyses Hoare graphs for well-formedness:
// structural soundness (dangling edges, terminal out-edges, unreachable
// vertices), memory-model forest invariants (duplicate or necessarily
// overlapping live regions, refuted relations), predicate canonicality
// (return-address clause coverage, bounded indirect control flow) and
// solver-backed clause consistency — the cheap "typechecker" that runs
// before the expensive Step-2 theorem checker.
//
// Usage:
//
//	hglint [-func addr|name | -hg graph.hgcs] [-json] [-rules r1,r2] [-list] binary.elf
//
// Without flags the binary is lifted end to end from its entry point and
// every successfully lifted graph is linted. With -func only that
// function is lifted; with -hg a graph saved by hglift -o (an HGCS graph
// file) is loaded against the binary and linted without lifting. -hg and
// -func together are a usage error. -json emits the machine-readable
// report; -rules restricts the run to a comma-separated rule subset;
// -list prints the rule catalog and exits.
//
// Exit status: 0 when no error-severity diagnostic fired, 1 otherwise
// (or on any I/O failure), 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/hglint"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/solver"
	"repro/lift"
)

func main() {
	funcSpec := flag.String("func", "", "lint a single function: hex address or symbol name")
	hgIn := flag.String("hg", "", "lint a graph saved by hglift -o (an HGCS graph file) against the binary")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON reports")
	ruleList := flag.String("rules", "", "comma-separated rule subset (default: all)")
	list := flag.Bool("list", false, "print the rule catalog and exit")
	flag.Parse()

	if *list {
		for _, r := range hglint.Rules() {
			fmt.Printf("%-22s %-5s %s\n", r.Name, r.Severity, r.Doc)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hglint [-func addr|name | -hg graph.hgcs] [-json] [-rules r1,r2] [-list] binary.elf")
		os.Exit(2)
	}
	if *hgIn != "" && *funcSpec != "" {
		fmt.Fprintln(os.Stderr, "hglint: -hg and -func are mutually exclusive")
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	im, err := image.Load(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}

	var opts []hglint.Option
	if *ruleList != "" {
		opts = append(opts, hglint.Only(strings.Split(*ruleList, ",")...))
	}
	// One shared memo cache across the graphs of a binary: lint queries
	// repeat heavily for stack-relative regions.
	opts = append(opts, hglint.WithCache(solver.NewCache()))

	reports, skipped := collect(im, flag.Arg(0), *hgIn, *funcSpec, opts)
	errors := 0
	for _, rep := range reports {
		errors += rep.Errors()
		if *jsonOut {
			fmt.Printf("%s\n", rep.JSON())
		} else {
			fmt.Print(rep)
		}
	}
	for _, s := range skipped {
		fmt.Fprintln(os.Stderr, "hglint:", s)
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// collect produces the lint reports for the requested mode, plus notes
// about graphs that could not be linted (failed lifts). An input that
// cannot be read, parsed or lifted at all is fatal, and the error names
// it: the graph file under -hg, otherwise the binary at path.
func collect(im *image.Image, path, hgIn, funcSpec string, opts []hglint.Option) ([]*hglint.Report, []string) {
	if hgIn != "" {
		hg, err := os.ReadFile(hgIn)
		if err != nil {
			fatal(err)
		}
		g, err := hgstore.LoadGraph(im, hg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", hgIn, err))
		}
		return []*hglint.Report{hglint.Lint(g, opts...)}, nil
	}

	if funcSpec != "" {
		addr, name, err := im.ResolveFunc(funcSpec)
		if err != nil {
			fatal(err)
		}
		res := lift.One(context.Background(), lift.Func(name, im, addr))
		fr := res.Func
		if fr == nil {
			fatal(fmt.Errorf("lift %s: %s %s", name, res.Status, res.PanicMsg))
		}
		if fr.Status != core.StatusLifted || fr.Graph == nil {
			fatal(fmt.Errorf("lift %s: %s %v", name, fr.Status, fr.Reasons))
		}
		return []*hglint.Report{hglint.Lint(fr.Graph, opts...)}, nil
	}

	res := lift.One(context.Background(), lift.Binary("binary", im))
	if res.Binary == nil {
		fatal(fmt.Errorf("%s: lift: %s %s", path, res.Status, res.PanicMsg))
	}
	var reports []*hglint.Report
	var skipped []string
	for _, fr := range res.Binary.Funcs {
		if fr.Status != core.StatusLifted || fr.Graph == nil {
			skipped = append(skipped, fmt.Sprintf("%s: not lifted (%s) — skipped", fr.Name, fr.Status))
			continue
		}
		reports = append(reports, hglint.Lint(fr.Graph, opts...))
	}
	if len(reports) == 0 {
		fatal(fmt.Errorf("%s: no lifted graph to lint (status %s)", path, res.Status))
	}
	return reports, skipped
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hglint:", err)
	os.Exit(1)
}
