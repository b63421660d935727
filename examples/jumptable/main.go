// Jump tables: switch statements compile to indirect jumps through
// .rodata tables — the paper's bounded-control-flow showcase. The lifter
// proves the table index is bounded (from the cmp/ja guard), enumerates
// the table ("one edge per read value") and resolves the indirection;
// disabling the code-pointer compatibility extension (an ablation) joins
// the loaded pointers into an abstract interval and loses the resolution.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cgen"
	"repro/internal/image"
	"repro/lift"
)

func main() {
	prog := &cgen.Program{
		Funcs: []*cgen.Func{{
			Name: "dispatch", Params: 1, Locals: 1,
			Body: []cgen.Stmt{
				cgen.Switch{
					X: cgen.Param(0),
					Cases: [][]cgen.Stmt{
						{cgen.Assign{Dst: 0, Src: cgen.Const(100)}},
						{cgen.Assign{Dst: 0, Src: cgen.Const(200)}},
						{cgen.Assign{Dst: 0, Src: cgen.Const(300)}},
						{cgen.Assign{Dst: 0, Src: cgen.Const(400)}},
					},
					Default: []cgen.Stmt{cgen.Assign{Dst: 0, Src: cgen.Const(0)}},
				},
				cgen.Return{X: cgen.Local(0)},
			},
		}},
	}
	bin, err := cgen.Compile(prog)
	if err != nil {
		log.Fatal(err)
	}

	img, err := image.Load(bin.ELF)
	if err != nil {
		log.Fatal(err)
	}
	req := lift.Func("dispatch", img, bin.Funcs["dispatch"])
	res := lift.One(context.Background(), req)
	if res.Func == nil || res.Func.Graph == nil {
		log.Fatalf("dispatch: %s", res.Status)
	}
	fmt.Printf("default lift: status=%s resolved-indirections=%d unresolved-jumps=%d\n",
		res.Status, res.Stats.Graph.ResolvedInd, res.Stats.Graph.UnresolvedJump)

	fmt.Println("\nrecovered disassembly (note the cmp/ja bound and the table jump):")
	for _, l := range res.Func.Graph.Disasm() {
		fmt.Println(" ", l)
	}

	// Ablation: join code pointers — the loaded table entries collapse
	// into an interval and the jump cannot be bounded.
	ab := lift.One(context.Background(), req, lift.JoinCodePointers())
	fmt.Printf("\nablation (join code pointers): resolved=%d unresolved-jumps=%d\n",
		ab.Stats.Graph.ResolvedInd, ab.Stats.Graph.UnresolvedJump)
}
