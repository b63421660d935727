package pool

import (
	"sync/atomic"
	"testing"
)

// TestForEach checks the pool primitive: every index runs exactly once, at
// any worker count, including the inline jobs==1 path and empty input.
func TestForEach(t *testing.T) {
	for _, jobs := range []int{-1, 0, 1, 2, 7, 64} {
		const n = 53
		var counts [n]atomic.Int32
		ForEach(jobs, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("jobs=%d: fn(%d) ran %d times", jobs, i, got)
			}
		}
	}
	ForEach(4, 0, func(i int) { t.Fatalf("fn called for n=0") })
}
