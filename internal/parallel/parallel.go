// Package parallel provides the one concurrency primitive the engine
// needs: a loop over an index range whose goroutines claim indices in
// order and carry stable worker ids. Iterations may complete in any
// order, so callers that need determinism must make each iteration
// independent (write to its own slot, or merge under a deterministic
// rule).
package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For invokes fn(worker, i) for every i in [0, n) on up to workers
// goroutines, claiming indices atomically and in order. worker is the
// claiming goroutine's stable id in [0, min(workers, n)), so each
// worker may own heavy reusable state (samplers, walkers, scratch)
// addressed by it: calls with one id never overlap, and the first one
// runs on that worker's goroutine, so such state may be built lazily
// without synchronization. With workers <= 1, fn runs inline as
// fn(0, i). All spawned goroutines have returned when For does.
//
// stop, when non-nil, is polled before each claim; once it reports
// true no further index is claimed and calls in flight finish. Callers
// use it to stop work whose context was cancelled.
//
// A panic in fn stays on For's side of the call: goroutines stop
// claiming after the first panic, and once all have returned it is
// re-raised on the calling goroutine as a *WorkerPanic, so the caller
// can recover it like a panic of its own. (A panic on a bare worker
// goroutine would end the process.) Inline, fn's panics propagate
// unchanged.
func For(n, workers int, stop func() bool, fn func(worker, i int)) {
	if stop == nil {
		stop = func() bool { return false }
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n && !stop(); i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var first firstPanic
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() && !first.failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				first.call(fn, w, i)
			}
		}()
	}
	wg.Wait()
	if first.failed.Load() {
		panic(first.p)
	}
}

// WorkerPanic is what For re-raises on its caller's goroutine when fn
// panicked on a worker goroutine: the panic value and the worker's
// stack at the panic.
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

// firstPanic records the first panic of a For loop. p is written only
// by the worker that set failed, and read only after every worker has
// joined.
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
