// Package pool is the one bounded worker pool of the repo: the lift
// scheduler (repro/lift's Run) fans lifts out over it and the Step-2
// checker (internal/triple) fans out theorems. It is a leaf, so the
// checker links none of the lifter's packages through it.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(w, 0) … fn(w, n−1) across a bounded pool of workers and
// waits for all of them. jobs ≤ 0 selects runtime.NumCPU(). With jobs == 1
// the calls run in order on the calling goroutine (no scheduling overhead,
// and a deterministic execution order for debugging).
//
// w is the number of the worker making the call, below jobs (or
// runtime.NumCPU()). A worker makes its calls one after another, so fn may
// keep scratch that outlives a call in a slot indexed by w.
//
// Both workloads are embarrassingly parallel — per-lift and per-vertex
// obligations are mutually independent — so a work-stealing counter over
// a fixed index range is all that is needed. fn must confine writes to
// its own index's slot and its worker's; panics are NOT recovered here
// (the scheduler layers per-lift recovery on top).
func ForEach(jobs, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
