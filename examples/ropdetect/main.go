// ROP detection via proof obligations: the Section 5.3 case studies. The
// ret2win binary calls the unknown external memset with a pointer into its
// own stack frame; lifting succeeds but emits a proof obligation that
// memset must preserve the return-address region — the negation of that
// obligation is exactly the exploit. The stack-probing and non-standard-
// rsp binaries are rejected outright, and the induced buffer overflow gets
// no Hoare graph at all.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/lift"
)

func main() {
	fmt.Println("=== ret2win: exploit candidate surfaced as a proof obligation ===")
	s, err := corpus.Ret2Win()
	if err != nil {
		log.Fatal(err)
	}
	r := lift.One(context.Background(), lift.Func(s.Name, s.Image, s.FuncAddr)).Func
	fmt.Printf("status: %s\n", r.Status)
	for _, o := range r.Graph.Obligations {
		fmt.Printf("obligation: %s\n", o)
	}
	for _, c := range core.ExploitCandidates(r) {
		fmt.Printf("violating the obligation (%s writing ≥ %#x bytes) overwrites the return address.\n",
			c.Callee, c.OverwriteLen)
	}

	fmt.Println("\n=== functions the lifter must reject ===")
	for _, build := range []func() (*corpus.Scenario, error){
		corpus.StackProbe, corpus.NonStdRSP, corpus.Overflow,
	} {
		s, err := build()
		if err != nil {
			log.Fatal(err)
		}
		r := lift.One(context.Background(), lift.Func(s.Name, s.Image, s.FuncAddr)).Func
		fmt.Printf("%-12s -> %s\n", s.Name, r.Status)
		for _, reason := range r.Reasons {
			fmt.Printf("             %s\n", reason)
		}
	}
}
