package uncertaingraph_test

// TestCancellationPropagates is the acceptance suite for the
// context-first facade: cancelling mid-operation must surface ctx.Err()
// promptly (the engines poll cancellation per σ probe / trial stage /
// scan chunk / sampled world, so the wait is bounded by one chunk of
// work), every worker goroutine must be joined (no leaks), and
// cancellation must never perturb results — a re-run after a cancelled
// run is bit-identical to a never-cancelled one.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	ug "uncertaingraph"
)

// settledGoroutines polls until the goroutine count stops above base or
// the deadline passes, returning the last observed count. Cancellation
// joins workers before returning, so the count should settle fast; the
// retry loop only absorbs runtime-internal stragglers.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func cancelTestGraph(t testing.TB) *ug.Graph {
	t.Helper()
	g := ug.SocialGraph(ug.NewRand(11), 900, 1200, []float64{0, 0, 0.5, 0.3, 0.2}, 0.4)
	if g.NumEdges() == 0 {
		t.Fatal("generator failed")
	}
	return g
}

func TestCancellationPropagates(t *testing.T) {
	g := cancelTestGraph(t)

	t.Run("obfuscate-mid-run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The progress observer fires after the first consumed σ probe:
		// cancelling there guarantees the search is genuinely mid-flight
		// (the next probe is about to start) rather than racing startup.
		start := time.Now()
		res, err := ug.Obfuscate(ctx, g,
			ug.WithK(5), ug.WithEps(0.05), ug.WithSeed(1), ug.WithWorkers(4),
			ug.WithObfuscation(ug.ObfuscationParams{Trials: 3, Delta: 1e-9}),
			ug.WithProgress(func(p ug.Progress) {
				if p.Done == 1 {
					cancel()
				}
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Error("cancelled Obfuscate returned a result alongside the error")
		}
		// Promptness: a full run at delta=1e-9 consumes ~30 probes; the
		// cancelled run must stop after roughly one more probe of work.
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("cancelled Obfuscate took %v", elapsed)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("goroutines: %d before, %d after cancellation", base, n)
		}
	})

	t.Run("obfuscate-pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := ug.Obfuscate(ctx, g, ug.WithK(3), ug.WithEps(0.1))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("estimate-mid-run", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rep, err := ug.EstimateStatistics(ctx, pub,
			ug.WithWorlds(500), ug.WithSeed(3), ug.WithWorkers(4),
			ug.WithDistances(ug.DistanceExactBFS),
			ug.WithProgress(func(p ug.Progress) {
				if p.Done == 2 {
					cancel()
				}
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep != nil {
			t.Error("cancelled EstimateStatistics returned a partial report")
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("goroutines: %d before, %d after cancellation", base, n)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := ug.EstimateStatistics(ctx, pub,
			ug.WithWorlds(2000), ug.WithDistances(ug.DistanceExactBFS))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})

	t.Run("batch-rerun-bit-identical", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		newBatch := func() *ug.QueryBatch {
			b, err := ug.NewQueryBatch(pub,
				ug.WithWorlds(300), ug.WithSeed(9), ug.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		addQueries := func(b *ug.QueryBatch) (int, int, int) {
			return b.AddReliability(0, 200), b.AddDistance(0, 400), b.AddKNearest(3, 8)
		}

		// Reference: an uncancelled run.
		ref := newBatch()
		relID, distID, knnID := addQueries(ref)
		if err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		wantRel := ref.Reliability(relID)
		wantMed := ref.MedianDistance(distID)
		wantKNN := ref.KNearestWithMedians(knnID)

		// Cancel mid-run, then re-Run the same batch uncancelled.
		base := runtime.NumGoroutine()
		b := newBatch()
		r2, d2, k2 := addQueries(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.Progress = func(done, total int) {
			if done == 1 {
				cancel()
			}
		}
		if err := b.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run err = %v, want context.Canceled", err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("goroutines: %d before, %d after cancellation", base, n)
		}
		b.Progress = nil
		if err := b.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := b.Reliability(r2); got != wantRel {
			t.Errorf("re-run Reliability = %v, want %v (bit-identical)", got, wantRel)
		}
		if got := b.MedianDistance(d2); got != wantMed {
			t.Errorf("re-run MedianDistance = %v, want %v", got, wantMed)
		}
		if got := b.KNearestWithMedians(k2); !reflect.DeepEqual(got, wantKNN) {
			t.Errorf("re-run KNearest = %v, want %v", got, wantKNN)
		}
	})

	t.Run("batch-early-exit-rerun-bit-identical", func(t *testing.T) {
		// Same contract as batch-rerun-bit-identical, but every source
		// carries only reliability/distance queries, so each per-world
		// BFS takes the target-resolved early-exit path: a cancel
		// between worlds must leave the batch re-runnable and the
		// re-run bit-identical to a never-cancelled reference.
		pub := ug.CertainGraph(g)
		newBatch := func() *ug.QueryBatch {
			b, err := ug.NewQueryBatch(pub,
				ug.WithWorlds(300), ug.WithSeed(13), ug.WithWorkers(4),
				ug.WithMemoryBudget(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		addQueries := func(b *ug.QueryBatch) (int, int, int) {
			return b.AddReliability(1, 250), b.AddReliability(5, 700), b.AddDistance(2, 300)
		}

		ref := newBatch()
		relID, rel2ID, distID := addQueries(ref)
		if err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		wantRel := ref.Reliability(relID)
		wantRel2 := ref.Reliability(rel2ID)
		wantMed := ref.MedianDistance(distID)

		base := runtime.NumGoroutine()
		b := newBatch()
		r2, r3, d2 := addQueries(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.Progress = func(done, total int) {
			if done == 1 {
				cancel()
			}
		}
		if err := b.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run err = %v, want context.Canceled", err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("goroutines: %d before, %d after cancellation", base, n)
		}
		b.Progress = nil
		if err := b.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := b.Reliability(r2); got != wantRel {
			t.Errorf("re-run Reliability #1 = %v, want %v (bit-identical)", got, wantRel)
		}
		if got := b.Reliability(r3); got != wantRel2 {
			t.Errorf("re-run Reliability #2 = %v, want %v", got, wantRel2)
		}
		if got := b.MedianDistance(d2); got != wantMed {
			t.Errorf("re-run MedianDistance = %v, want %v", got, wantMed)
		}
	})

	t.Run("batch-pre-cancelled", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		b, err := ug.NewQueryBatch(pub, ug.WithWorlds(50))
		if err != nil {
			t.Fatal(err)
		}
		id := b.AddReliability(0, 1)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := b.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}

		// A cancelled re-Run of a previously successful batch must not
		// leave the (wiped) old results silently readable: accessors go
		// back to the un-ran state until a Run completes.
		if err := b.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		_ = b.Reliability(id) // available after the successful run
		if err := b.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("re-run err = %v, want context.Canceled", err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Reliability readable after a cancelled re-Run (stale wiped results)")
				}
			}()
			_ = b.Reliability(id)
		}()
	})
}

// TestCancellationDoesNotPerturbResults pins the other half of the
// contract: a run that completes — even one sharing a process with
// cancelled runs, progress observers and varying worker counts — is
// bit-identical to the plain run.
func TestCancellationDoesNotPerturbResults(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(21), 300, 400, []float64{0, 0, 0.5, 0.3, 0.2}, 0.4)
	opts := func(extra ...ug.Option) []ug.Option {
		return append([]ug.Option{
			ug.WithK(4), ug.WithEps(0.1), ug.WithSeed(5),
			ug.WithObfuscation(ug.ObfuscationParams{Trials: 2, Delta: 1e-3}),
		}, extra...)
	}
	plain, err := ug.Obfuscate(context.Background(), g, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := ug.Obfuscate(context.Background(), g,
		opts(ug.WithWorkers(3), ug.WithProgress(func(ug.Progress) {}))...)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sigma != observed.Sigma || plain.EpsTilde != observed.EpsTilde ||
		plain.Generations != observed.Generations || plain.Trials != observed.Trials {
		t.Errorf("observed run diverged: (σ=%v ε̃=%v g=%d t=%d) vs (σ=%v ε̃=%v g=%d t=%d)",
			observed.Sigma, observed.EpsTilde, observed.Generations, observed.Trials,
			plain.Sigma, plain.EpsTilde, plain.Generations, plain.Trials)
	}
}
