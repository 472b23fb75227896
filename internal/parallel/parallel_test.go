package parallel

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		For(n, workers, nil, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroIterations(t *testing.T) {
	For(0, 4, nil, func(int, int) { t.Error("fn called for n=0") })
}

// TestForAbortSkipsRemainingWork pins the stop hook: once it reports
// true no further index is claimed, inline and on goroutines, and it
// is polled before the first claim too.
func TestForAbortSkipsRemainingWork(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var ran atomic.Int32
		stop := func() bool { return ran.Load() >= 5 }
		For(1000, workers, stop, func(int, int) { ran.Add(1) })
		// Each goroutine may have claimed one index before it saw stop.
		if got := ran.Load(); got < 5 || got > 5+int32(workers) {
			t.Errorf("workers=%d: stop after 5 iterations ran %d", workers, got)
		}
		For(10, workers, func() bool { return true }, func(int, int) { t.Error("fn ran after a stop") })
	}
}

func TestForJoinsBeforeReturning(t *testing.T) {
	// Writes from fn must be visible without further synchronization.
	sum := make([]int, 200)
	For(len(sum), 4, nil, func(_, i int) { sum[i] = i })
	for i, v := range sum {
		if v != i {
			t.Fatalf("slot %d = %d: For returned before workers finished", i, v)
		}
	}
}

// TestForWorkerIDsAreStable pins the worker contract behind per-lane
// state: ids lie in [0, min(workers, n)), calls with one id never
// overlap, and every index is claimed once and in order. Each worker's
// tally is a plain int, so sharing an id across goroutines would also
// trip the race detector.
func TestForWorkerIDsAreStable(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{200, 4}, {3, 8}, {57, 1}} {
		lanes := max(1, min(tc.workers, tc.n))
		busy := make([]atomic.Bool, lanes)
		tally := make([]int, lanes)
		last := make([]int, lanes) // highest index each worker ran, +1
		For(tc.n, tc.workers, nil, func(w, i int) {
			if w < 0 || w >= lanes {
				t.Errorf("n=%d workers=%d: worker id %d outside [0, %d)", tc.n, tc.workers, w, lanes)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("n=%d workers=%d: two calls overlap on worker %d", tc.n, tc.workers, w)
				return
			}
			defer busy[w].Store(false)
			if i < last[w] {
				t.Errorf("n=%d workers=%d: worker %d ran index %d after %d", tc.n, tc.workers, w, i, last[w]-1)
			}
			last[w] = i + 1
			tally[w]++
		})
		total := 0
		for _, c := range tally {
			total += c
		}
		if total != tc.n {
			t.Errorf("n=%d workers=%d: workers ran %d indices in all", tc.n, tc.workers, total)
		}
	}
}

// reraiseCases are the panic patterns of the panic-contract tests: one
// panicking index, and every index panicking, which must not leave a
// goroutine claiming.
var reraiseCases = []struct {
	name    string
	workers int
	panics  func(i int) bool
}{
	{"one index", 4, func(i int) bool { return i == 37 }},
	{"every index", 3, func(int) bool { return true }},
}

// checkReraise pins the panic contract of For(200, workers, stop, fn)
// with fn panicking where panics says: the panic reaches For's caller
// as a *WorkerPanic carrying the value and the worker's stack, only
// after every goroutine has returned, with worker ids in range and
// later claims skipped — including when every call panics.
func checkReraise(t *testing.T, workers int, stop func() bool, panics func(i int) bool, every bool) {
	t.Helper()
	var running, ran atomic.Int64
	var returned atomic.Bool
	caught := func() (v any) {
		defer func() { v = recover() }()
		For(200, workers, stop, func(w, i int) {
			running.Add(1)
			defer running.Add(-1)
			if returned.Load() {
				t.Error("fn ran after For returned")
			}
			if w < 0 || w >= workers {
				t.Errorf("worker id %d outside [0, %d)", w, workers)
			}
			ran.Add(1)
			if panics(i) {
				panic(fmt.Sprintf("boom at %d", i))
			}
		})
		return nil
	}()
	returned.Store(true)
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", caught, caught)
	}
	if s, _ := wp.Value.(string); !strings.HasPrefix(s, "boom at ") || len(wp.Stack) == 0 {
		t.Errorf("WorkerPanic value %v, %d stack bytes; want the panic value and a stack", wp.Value, len(wp.Stack))
	}
	if !strings.Contains(wp.Error(), "boom at ") {
		t.Errorf("Error() = %q, want it to carry the panic value", wp.Error())
	}
	if running.Load() != 0 {
		t.Errorf("%d calls still running when the panic was re-raised", running.Load())
	}
	// After a panic every goroutine stops claiming, so when every call
	// panics each goroutine makes at most one.
	if every && ran.Load() > int64(workers) {
		t.Errorf("%d calls ran on %d goroutines although every call panicked", ran.Load(), workers)
	}
}

// TestForReraisesWorkerPanic pins the panic contract with no stop hook,
// as core's trials, adversary's scan chunks and bfs call For, and for
// nested loops.
func TestForReraisesWorkerPanic(t *testing.T) {
	for _, tc := range reraiseCases {
		t.Run(tc.name, func(t *testing.T) {
			checkReraise(t, tc.workers, nil, tc.panics, tc.name == "every index")
		})
	}
	// Nested loops, as an obfuscation trial's scan runs inside the trial
	// loop: the inner panic arrives once, not wrapped per level.
	caught := func() (v any) {
		defer func() { v = recover() }()
		For(4, 2, nil, func(int, int) {
			For(4, 2, nil, func(int, int) { panic("inner") })
		})
		return nil
	}()
	if wp, ok := caught.(*WorkerPanic); !ok || wp.Value != "inner" {
		t.Errorf("nested loops re-raised %#v, want a *WorkerPanic holding \"inner\"", caught)
	}
}

// TestForWorkersReraisesWorkerPanic pins the same contract in the world
// loop's call shape: a stop hook polling a live context, which must
// neither mask the panic nor let a goroutine claim past it.
func TestForWorkersReraisesWorkerPanic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := func() bool { return ctx.Err() != nil }
	for _, tc := range reraiseCases {
		t.Run(tc.name, func(t *testing.T) {
			checkReraise(t, tc.workers, stop, tc.panics, tc.name == "every index")
		})
	}
}

// TestForWorkersInlinePanicPropagates pins the one-worker path: fn
// runs on the caller's goroutine, so its panic arrives unwrapped.
func TestForWorkersInlinePanicPropagates(t *testing.T) {
	defer func() {
		if v := recover(); v != "inline" {
			t.Errorf("recovered %v, want the original panic value", v)
		}
	}()
	For(5, 1, nil, func(_, i int) {
		if i == 2 {
			panic("inline")
		}
	})
	t.Error("For returned normally")
}
