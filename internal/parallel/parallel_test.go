package parallel

import (
	"context"
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
