package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEach checks the pool primitive: every index runs exactly once, at
// any worker count, including the inline jobs==1 path and empty input, and
// each call names a worker below the worker count that is making no other
// call at the time.
func TestForEach(t *testing.T) {
	for _, jobs := range []int{-1, 0, 1, 2, 7, 64} {
		const n = 53
		workers := jobs
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		var counts [n]atomic.Int32
		busy := make([]atomic.Bool, workers)
		var bad atomic.Int32
		ForEach(jobs, n, func(w, i int) {
			if w < 0 || w >= workers || !busy[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			counts[i].Add(1)
			busy[w].Store(false)
		})
		if b := bad.Load(); b != 0 {
			t.Fatalf("jobs=%d: %d calls named a worker out of range or already busy", jobs, b)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("jobs=%d: fn(%d) ran %d times", jobs, i, got)
			}
		}
	}
	ForEach(4, 0, func(_, i int) { t.Fatalf("fn called for n=0") })
}
