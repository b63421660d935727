package faultinject

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDeterministic requires two injectors with the same seed to make
// identical decisions on identical keys, and a different seed to disagree
// somewhere.
func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, PanicRate: 0.3, StallRate: 0.3}
	a, b := New(cfg), New(cfg)
	cfg.Seed = 8
	c := New(cfg)
	diverged := false
	for _, task := range []string{"bin_000", "bin_001", "lib_017", "xen_bin_004"} {
		for attempt := 0; attempt < 4; attempt++ {
			if a.LiftPanic(task, attempt) != b.LiftPanic(task, attempt) {
				t.Fatalf("same-seed panic decisions diverge for %s/%d", task, attempt)
			}
			_, sa := a.LiftStall(task, attempt)
			_, sb := b.LiftStall(task, attempt)
			if sa != sb {
				t.Fatalf("same-seed stall decisions diverge for %s/%d", task, attempt)
			}
			if a.LiftPanic(task, attempt) != c.LiftPanic(task, attempt) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged (suspicious hash)")
	}
}

// TestRates checks the empirical fire rate lands near the configured rate
// and that a zero config injects nothing.
func TestRates(t *testing.T) {
	inj := New(Config{Seed: 1, PanicRate: 0.2})
	fired := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if inj.LiftPanic(taskName(i), 0) {
			fired++
		}
	}
	if got := float64(fired) / n; got < 0.15 || got > 0.25 {
		t.Fatalf("empirical rate %.3f far from configured 0.2", got)
	}
	var zero *Injector
	if zero.LiftPanic("x", 0) {
		t.Fatal("nil injector fired")
	}
	if _, ok := zero.LiftStall("x", 0); ok {
		t.Fatal("nil injector stalled")
	}
	zero.TaskCompleted() // must not panic
	if zero.Fired() != (Counts{}) {
		t.Fatal("nil injector reported fired faults")
	}
}

func taskName(i int) string {
	return "task_" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// TestAttemptsDecorrelated requires per-attempt decisions for one task to
// be roughly independent: at rate 0.3 with three attempts, the fraction
// of tasks panicking on every attempt must be near 0.3³ ≈ 2.7%, not near
// 30%. Raw FNV failed this badly — consecutive attempt numbers landed on
// the same side of the threshold — which made retries useless against
// sub-unity panic rates; the avalanche finalizer is what fixes it.
func TestAttemptsDecorrelated(t *testing.T) {
	inj := New(Config{Seed: 1, PanicRate: 0.3})
	const n = 2000
	allThree := 0
	for i := 0; i < n; i++ {
		if inj.LiftPanic(taskName(i), 0) && inj.LiftPanic(taskName(i), 1) && inj.LiftPanic(taskName(i), 2) {
			allThree++
		}
	}
	if got := float64(allThree) / n; got > 0.06 {
		t.Fatalf("%.1f%% of tasks panic on all three attempts; independence predicts ~2.7%%", 100*got)
	}
}

// TestNeighbourTasksDecorrelated requires decisions for consecutive task
// names (the shape corpus generators produce) to be roughly independent:
// the empirical rate over a consecutive run must sit near the configured
// rate rather than collapsing to all-or-nothing per seed.
func TestNeighbourTasksDecorrelated(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		inj := New(Config{Seed: seed, PanicRate: 0.5})
		fired := 0
		const n = 200
		for i := 0; i < n; i++ {
			if inj.LiftPanic(fmt.Sprintf("pipetest_%03d", i), 0) {
				fired++
			}
		}
		if got := float64(fired) / n; got < 0.35 || got > 0.65 {
			t.Fatalf("seed %d: empirical rate %.2f over consecutive names, want ≈0.5", seed, got)
		}
	}
}

// TestMaxAttemptFaults caps faults to the first attempt: rate 1 fires on
// attempt 0 and never after.
func TestMaxAttemptFaults(t *testing.T) {
	inj := New(Config{Seed: 3, PanicRate: 1, MaxAttemptFaults: 1})
	if !inj.LiftPanic("t", 0) {
		t.Fatal("attempt 0 must fire at rate 1")
	}
	if inj.LiftPanic("t", 1) || inj.LiftPanic("t", 2) {
		t.Fatal("attempts past MaxAttemptFaults must not fire")
	}
}

// TestKillAfter fires OnKill exactly once at the threshold, also under
// concurrent completions.
func TestKillAfter(t *testing.T) {
	inj := New(Config{Seed: 1, KillAfter: 5})
	var kills int32
	var mu sync.Mutex
	inj.OnKill(func() { mu.Lock(); kills++; mu.Unlock() })
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); inj.TaskCompleted() }()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if kills != 1 {
		t.Fatalf("OnKill fired %d times, want 1", kills)
	}
	if !inj.Fired().Killed {
		t.Fatal("Fired().Killed not set")
	}
}

// TestStallDefault fills in the default stall duration.
func TestStallDefault(t *testing.T) {
	inj := New(Config{Seed: 1, StallRate: 1})
	d, ok := inj.LiftStall("t", 0)
	if !ok || d != 30*time.Second {
		t.Fatalf("stall = %v/%v, want 30s/true", d, ok)
	}
}
