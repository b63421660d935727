package lift_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/lift"
)

// liftedGraphs lifts the units and returns every produced graph, encoded
// in the store's container format, in request and function order.
func liftedGraphs(t *testing.T, units []*corpus.Unit) [][]byte {
	t.Helper()
	sum := lift.Run(context.Background(), lift.UnitRequests(units), lift.Jobs(2))
	var out [][]byte
	add := func(f *core.FuncResult) {
		if f != nil && f.Graph != nil {
			out = append(out, hgstore.MarshalGraph(f.Graph))
		}
	}
	for _, r := range sum.Results {
		add(r.Func)
		if r.Binary != nil {
			for _, f := range r.Binary.Funcs {
				add(f)
			}
		}
	}
	return out
}

// TestLiftTwiceMarshalsIdentically lifts the Table 2 binaries twice in one
// process and requires byte-identical graph encodings. The encoding keeps
// each vertex's memory forest in its stored order, so this pins down that
// the memory-model join orders its output deterministically.
func TestLiftTwiceMarshalsIdentically(t *testing.T) {
	units, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	first, second := liftedGraphs(t, units), liftedGraphs(t, units)
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("graphs: %d then %d", len(first), len(second))
	}
	differ := 0
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d graphs encode differently on the second lift", differ, len(first))
	}
}
