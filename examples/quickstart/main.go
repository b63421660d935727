// Quickstart: compile a tiny C-like program to a real ELF binary, lift it
// to a Hoare Graph (Step 1), inspect the recovered disassembly and
// statistics, then independently re-verify every Hoare triple (Step 2).
// The exit status is non-zero unless Step 2 proves every theorem.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/image"
	"repro/lift"
)

func main() {
	// A small program: f(x) = sum of the x first integers, capped at 100.
	prog := &cgen.Program{
		Funcs: []*cgen.Func{{
			Name: "main", Params: 1, Locals: 2,
			Body: []cgen.Stmt{
				cgen.If{
					Cond: cgen.Cond{Op: cgen.CondGt, L: cgen.Param(0), R: cgen.Const(100)},
					Then: []cgen.Stmt{cgen.Return{X: cgen.Const(100)}},
				},
				cgen.Assign{Dst: 0, Src: cgen.Const(0)},
				cgen.Assign{Dst: 1, Src: cgen.Const(0)},
				cgen.While{
					Cond: cgen.Cond{Op: cgen.CondLt, L: cgen.Local(1), R: cgen.Param(0)},
					Body: []cgen.Stmt{
						cgen.Assign{Dst: 0, Src: cgen.Bin{Op: cgen.OpAdd, L: cgen.Local(0), R: cgen.Local(1)}},
						cgen.Assign{Dst: 1, Src: cgen.Bin{Op: cgen.OpAdd, L: cgen.Local(1), R: cgen.Const(1)}},
					},
				},
				cgen.Return{X: cgen.Local(0)},
			},
		}},
	}
	bin, err := cgen.Compile(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d bytes of ELF\n\n", len(bin.ELF))

	img, err := image.Load(bin.ELF)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: lift the binary from its entry point.
	ctx := context.Background()
	res := lift.One(ctx, lift.Binary("quickstart", img))
	if res.Status != core.StatusLifted {
		log.Fatalf("lift: %s", res.Status)
	}
	st := res.Stats.Graph
	fmt.Printf("lift status: %s\n", res.Status)
	fmt.Printf("instructions=%d symbolic states=%d edges=%d\n\n",
		st.Instructions, st.States, st.Edges)

	// The recovered disassembly of main.
	fmt.Println("recovered disassembly of main:")
	for _, fr := range res.Binary.Funcs {
		if fr.Addr == bin.Funcs["main"] {
			for _, l := range fr.Graph.Disasm() {
				fmt.Println(" ", l)
			}
		}
	}

	// Step 2: every vertex is one independently checked Hoare triple.
	var proven, assumed, failed, skipped int
	for _, fr := range res.Binary.Funcs {
		rep := lift.Check(ctx, img, fr.Graph)
		proven += rep.Proven
		assumed += rep.Assumed
		failed += rep.Failed
		skipped += rep.Skipped
	}
	fmt.Printf("\nStep 2: %d theorems proven, %d assumed, %d failed\n",
		proven, assumed, failed)
	if failed > 0 || skipped > 0 {
		os.Exit(1)
	}
}
