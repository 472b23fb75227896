// Package parallel provides the one concurrency primitive the
// obfuscation engine needs: a work-stealing loop over an index range.
// Iterations are claimed in order but may complete in any order, so
// callers that need determinism must make each iteration independent
// (write to its own slot, or merge under a deterministic rule).
package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For invokes fn(i) for every i in [0, n), on up to workers goroutines
// (workers <= 1 runs inline). aborted, when non-nil, is polled before
// each claim; once it reports true the remaining iterations may be
// skipped — callers use this to stop work whose context was cancelled.
// All spawned goroutines have returned when For does.
//
// A panic in fn is handled as in ForWorkers: goroutines stop claiming
// after the first panic, and once all have returned it is re-raised on
// the calling goroutine as a *WorkerPanic. Inline, fn's panics
// propagate unchanged.
func For(n, workers int, aborted func() bool, fn func(i int)) {
	if aborted == nil {
		aborted = func() bool { return false }
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !aborted(); i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var first firstPanic
	call := func(_, i int) { fn(i) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted() && !first.failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				first.call(call, w, i)
			}
		}()
	}
	wg.Wait()
	if first.failed.Load() {
		panic(first.p)
	}
}

// ForCtx is For with context-based abortion: iteration claims stop at
// the first claim after ctx is done (in-flight iterations run to
// completion — cancellation lands within one iteration of work), and
// the context's error is returned. A nil ctx never aborts. All spawned
// goroutines have returned when ForCtx does, so a cancelled loop leaks
// nothing.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		For(n, workers, nil, fn)
		return nil
	}
	For(n, workers, func() bool { return ctx.Err() != nil }, fn)
	return ctx.Err()
}

// ForWorkers dispatches the indices [0, n) to exactly `workers`
// long-lived goroutines over an unbuffered channel, invoking
// fn(worker, i) with the stable worker id — the shape the world-loop
// engines need, where each worker owns heavy reusable state (samplers,
// walkers) addressed by that id. fn's first call for a given
// worker id happens on that worker's goroutine, so per-worker state
// may be built lazily and in parallel without synchronization.
//
// Cancelling ctx stops dispatch at the next index and makes workers
// skip (drain) anything already queued, so cancellation lands within
// one in-flight iteration per worker; all goroutines are joined before
// ForWorkers returns, and the context's error is returned. A nil ctx
// never cancels.
//
// A panic in fn stays on ForWorkers' side of the call: workers skip
// every index after the first panic, and once all are joined the first
// panic is re-raised on the calling goroutine as a *WorkerPanic, so
// the caller can recover it like a panic of its own. (A panic on a bare
// worker goroutine would end the process.) With one worker fn runs
// inline and its panics propagate unchanged.
func ForWorkers(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		// Inline like For(): without this guard a non-positive worker
		// count would leave the unbuffered send below blocked forever.
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return ctx.Err()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	var first firstPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil || first.failed.Load() {
					continue // drain the channel without doing work
				}
				first.call(fn, w, i)
			}
		}(w)
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if first.failed.Load() {
		panic(first.p)
	}
	return ctx.Err()
}

// WorkerPanic is what For and ForWorkers re-raise on their caller's
// goroutine when fn panicked on a worker goroutine: the panic value and
// the worker's stack at the panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n\n%s", p.Value, p.Stack)
}

// recovered wraps v, a value recover returned, as a *WorkerPanic with
// the panicking goroutine's stack. A *WorkerPanic that a nested loop
// already re-raised is kept as is, so its value and stack stay the
// innermost ones.
func recovered(v any) *WorkerPanic {
	if p, ok := v.(*WorkerPanic); ok {
		return p
	}
	return &WorkerPanic{Value: v, Stack: debug.Stack()}
}

// firstPanic records the first panic of a For or ForWorkers loop. p
// is written only by the worker that set failed, and read only after
// every worker has joined.
type firstPanic struct {
	failed atomic.Bool
	p      *WorkerPanic
}

// call runs fn(w, i), recording a panic instead of letting it end the
// worker goroutine.
func (f *firstPanic) call(fn func(worker, i int), w, i int) {
	defer func() {
		if v := recover(); v != nil && f.failed.CompareAndSwap(false, true) {
			f.p = recovered(v)
		}
	}()
	fn(w, i)
}
