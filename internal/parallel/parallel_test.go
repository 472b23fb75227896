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
		For(n, workers, nil, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroIterations(t *testing.T) {
	For(0, 4, nil, func(int) { t.Error("fn called for n=0") })
}

func TestForAbortSkipsRemainingWork(t *testing.T) {
	var ran atomic.Int32
	aborted := func() bool { return ran.Load() >= 5 }
	For(1000, 1, aborted, func(int) { ran.Add(1) })
	if got := ran.Load(); got < 5 || got == 1000 {
		t.Errorf("abort after 5 iterations ran %d", got)
	}
}

func TestForJoinsBeforeReturning(t *testing.T) {
	// Writes from fn must be visible without further synchronization.
	sum := make([]int, 200)
	For(len(sum), 4, nil, func(i int) { sum[i] = i })
	for i, v := range sum {
		if v != i {
			t.Fatalf("slot %d = %d: For returned before workers finished", i, v)
		}
	}
}

func TestForCtxNilContextRunsEverything(t *testing.T) {
	var ran atomic.Int32
	if err := ForCtx(nil, 50, 4, func(int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d of 50", ran.Load())
	}
}

func TestForCtxCancelStopsClaimsAndReturnsErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForCtx(ctx, 1000, 1, func(int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Claims are polled per iteration: at most the in-flight iteration
	// completes after cancellation.
	if got := ran.Load(); got != 5 {
		t.Errorf("cancel after 5 iterations ran %d", got)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForCtx(ctx, 10, 3, func(int) { t.Error("fn ran under a dead context") }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForWorkersReraisesWorkerPanic pins the panic contract: a panic
// on a worker goroutine reaches ForWorkers' caller as a *WorkerPanic
// carrying the value and the worker's stack, only after every worker
// has joined, and with later indices skipped — including when every
// call panics, which must not leave the dispatcher blocked.
func TestForWorkersReraisesWorkerPanic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		panics  func(i int) bool
	}{
		{"one index", 4, func(i int) bool { return i == 37 }},
		{"every index", 3, func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var running, ran atomic.Int64
			var returned atomic.Bool
			caught := func() (v any) {
				defer func() { v = recover() }()
				_ = ForWorkers(context.Background(), 200, tc.workers, func(_, i int) {
					running.Add(1)
					defer running.Add(-1)
					if returned.Load() {
						t.Error("fn ran after ForWorkers returned")
					}
					ran.Add(1)
					if tc.panics(i) {
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
			// After a panic every worker skips what it claims next, so
			// when every call panics each worker makes at most one.
			if tc.name == "every index" && ran.Load() > int64(tc.workers) {
				t.Errorf("%d calls ran on %d workers although every call panicked", ran.Load(), tc.workers)
			}
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
	_ = ForWorkers(context.Background(), 5, 1, func(_, i int) {
		if i == 2 {
			panic("inline")
		}
	})
	t.Error("ForWorkers returned normally")
}
