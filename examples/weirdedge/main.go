// Weird edge: the Section 2 example of the paper, end to end. A jump-table
// dispatch hides a ret instruction (byte 0xc3) inside the immediate of its
// first instruction. When the two stored-through pointers alias, the
// indirect jump lands in the middle of that instruction — a ROP gadget.
// An overapproximative lifter must find this "weird" edge, and ours does:
// the Hoare graph contains one edge per jump-table value plus the edge to
// the hidden gadget, and every edge verifies as a Hoare triple (the exit
// status is non-zero otherwise).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/lift"
)

func main() {
	s, err := corpus.WeirdEdge()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Describe)

	ctx := context.Background()
	res := lift.One(ctx, lift.Func(s.Name, s.Image, s.FuncAddr))
	r := res.Func
	if r == nil || r.Graph == nil {
		log.Fatalf("%s: %s", s.Name, res.Status)
	}
	fmt.Printf("\nlift status: %s, %d instructions, %d states, %d resolved indirection(s)\n",
		r.Status, r.Stats().Instructions, r.Stats().States, r.Stats().ResolvedInd)

	gadget := s.FuncAddr + 1
	fmt.Printf("\nhidden instruction at %#x: %s\n", gadget,
		mustString(r, gadget))
	for _, e := range r.Graph.SortedEdges() {
		if v := r.Graph.Vertices[e.To]; v != nil && v.Addr == gadget {
			fmt.Printf("WEIRD EDGE: %s --[%s]--> %s\n", e.From, mustString(r, e.Addr), e.To)
		}
	}

	// Concrete confirmation: run with aliasing pointers.
	c := emu.New(s.Image)
	c.Reset(s.FuncAddr)
	c.Regs[x86.RAX] = 7
	c.Regs[x86.RDI] = 0x7ffff800
	c.Regs[x86.RSI] = 0x7ffff800 // same pointer: the aliasing case
	trace, err := c.Run(100)
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range trace {
		if tr.To == gadget {
			fmt.Printf("\nconcrete run confirms: control reached %#x (the gadget)\n", gadget)
		}
	}

	rep := lift.Check(ctx, s.Image, r.Graph, lift.Jobs(2))
	fmt.Printf("\nStep 2: %d theorems proven, %d assumed, %d failed\n",
		rep.Proven, rep.Assumed, rep.Failed)
	if !rep.AllProven() {
		os.Exit(1)
	}
}

func mustString(r *core.FuncResult, addr uint64) string {
	inst, ok := r.Graph.Instrs[addr]
	if !ok {
		return "(not lifted)"
	}
	return inst.String()
}
