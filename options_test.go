package uncertaingraph_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	ug "uncertaingraph"
	"uncertaingraph/internal/query"
)

// TestErrBadConfig pins the validation satellite: the option
// constructors reject nonsensical values with typed errors instead of
// silently clamping, hanging or degenerating.
func TestErrBadConfig(t *testing.T) {
	g := ug.GraphFromEdges(4, []ug.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	pub := ug.CertainGraph(g)
	ctx := context.Background()

	cases := []struct {
		name string
		err  error
	}{
		{"negative workers", func() error {
			_, err := ug.Obfuscate(ctx, g, ug.WithK(2), ug.WithEps(0.3), ug.WithWorkers(-1))
			return err
		}()},
		{"zero worlds", func() error {
			_, err := ug.EstimateStatistics(ctx, pub, ug.WithWorlds(0))
			return err
		}()},
		{"negative worlds", func() error {
			b, err := ug.NewQueryBatch(pub, ug.WithWorlds(-5))
			if b != nil {
				t.Error("NewQueryBatch returned a batch alongside the error")
			}
			return err
		}()},
		{"negative memory budget", func() error {
			b, err := ug.NewQueryBatch(pub, ug.WithMemoryBudget(-1))
			if b != nil {
				t.Error("NewQueryBatch returned a batch alongside the error")
			}
			return err
		}()},
		{"k below one", func() error {
			_, err := ug.Obfuscate(ctx, g, ug.WithK(0.5), ug.WithEps(0.3))
			return err
		}()},
		{"eps out of range", func() error {
			_, err := ug.Obfuscate(ctx, g, ug.WithK(2), ug.WithEps(1.5))
			return err
		}()},
		{"params negative workers", func() error {
			_, err := ug.Obfuscate(ctx, g, ug.WithK(2), ug.WithEps(0.3),
				ug.WithObfuscation(ug.ObfuscationParams{Workers: -3}))
			return err
		}()},
		{"k smuggled through params", func() error {
			_, err := ug.Obfuscate(ctx, g,
				ug.WithObfuscation(ug.ObfuscationParams{K: 0.5, Eps: 0.3}))
			return err
		}()},
		{"eps smuggled through params", func() error {
			_, err := ug.Obfuscate(ctx, g,
				ug.WithObfuscation(ug.ObfuscationParams{K: 2, Eps: 1.5}))
			return err
		}()},
		{"k missing entirely", func() error {
			_, err := ug.Obfuscate(ctx, g, ug.WithEps(0.3))
			return err
		}()},
		{"estimate negative workers", func() error {
			_, err := ug.EstimateStatistics(ctx, pub,
				ug.WithEstimate(ug.EstimateConfig{Workers: -1}))
			return err
		}()},
		{"unknown distance method", func() error {
			_, err := ug.Statistics(ctx, g, ug.WithDistances(ug.DistanceMethod(42)))
			return err
		}()},
		{"negative tolerance", func() error {
			_, err := ug.EstimateStatistics(ctx, pub, ug.WithTolerance(-0.1))
			return err
		}()},
		{"NaN tolerance", func() error {
			_, err := ug.EstimateStatistics(ctx, pub, ug.WithTolerance(math.NaN()))
			return err
		}()},
		{"zero max worlds", func() error {
			_, err := ug.EstimateStatistics(ctx, pub, ug.WithMaxWorlds(0))
			return err
		}()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ug.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, c.err)
		}
	}
}

// TestObfuscationRejectsNonFiniteParams pins the non-finite check of
// WithObfuscation: a NaN or infinite C, Delta, SigmaInit or MaxSigma is
// rejected with ErrBadConfig before any work starts, instead of
// panicking in a trial goroutine, stalling the σ search, or ending it
// without a probe. A short deadline turns a stalled search into a
// failure rather than a hang. Zero and a finite C below 1 still pass.
func TestObfuscationRejectsNonFiniteParams(t *testing.T) {
	g := ug.BarabasiAlbert(ug.NewRand(3), 300, 3)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		p    ug.ObfuscationParams
	}{
		{"C=NaN", ug.ObfuscationParams{C: nan}},
		{"C=+Inf", ug.ObfuscationParams{C: inf}},
		{"C=-Inf", ug.ObfuscationParams{C: -inf}},
		{"Delta=NaN", ug.ObfuscationParams{Delta: nan}},
		{"Delta=+Inf", ug.ObfuscationParams{Delta: inf}},
		{"SigmaInit=NaN", ug.ObfuscationParams{SigmaInit: nan}},
		{"SigmaInit=+Inf", ug.ObfuscationParams{SigmaInit: inf}},
		{"MaxSigma=NaN", ug.ObfuscationParams{C: 1, MaxSigma: nan}},
		{"MaxSigma=+Inf", ug.ObfuscationParams{MaxSigma: inf}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			c.p.Trials = 1
			_, err := ug.Obfuscate(ctx, g, ug.WithK(5), ug.WithEps(0.05), ug.WithSeed(1), ug.WithObfuscation(c.p))
			if !errors.Is(err, ug.ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	_, err := ug.Obfuscate(context.Background(), g, ug.WithK(2), ug.WithEps(0.3), ug.WithSeed(1),
		ug.WithObfuscation(ug.ObfuscationParams{C: 0.5, Trials: 1, Delta: 1e-2}))
	if errors.Is(err, ug.ErrBadConfig) {
		t.Errorf("finite C below 1 with default zeros rejected: %v", err)
	}
}

// TestEstimateRejectsBadANFBits pins the ANFBits check: an exponent
// outside 4–16 would reach hll and panic inside a world-loop lane
// goroutine, where no caller can recover it, so WithEstimate rejects it
// with ErrBadConfig. 0 (the default) and both ends of the range run.
func TestEstimateRejectsBadANFBits(t *testing.T) {
	g := ug.GraphFromEdges(4, []ug.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	pub := ug.CertainGraph(g)
	ctx := context.Background()
	for _, bits := range []int{-1, 3, 17} {
		_, err := ug.EstimateStatistics(ctx, pub, ug.WithWorkers(2),
			ug.WithEstimate(ug.EstimateConfig{Worlds: 4, ANFBits: bits}))
		if !errors.Is(err, ug.ErrBadConfig) {
			t.Errorf("ANFBits %d: err = %v, want ErrBadConfig", bits, err)
		}
	}
	for _, bits := range []int{0, 4, 16} {
		if _, err := ug.EstimateStatistics(ctx, pub, ug.WithWorkers(2),
			ug.WithEstimate(ug.EstimateConfig{Worlds: 4, ANFBits: bits})); err != nil {
			t.Errorf("ANFBits %d: %v", bits, err)
		}
	}
}

// TestOptionLegacyEquivalence pins the option-merge contract: the
// per-knob option form of every entry point produces results
// bit-identical to the bulk-struct form (WithObfuscation, WithEstimate,
// query.NewBatch) with the same seed — pinned regression values do not
// depend on how the configuration is spelled.
func TestOptionLegacyEquivalence(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(31), 250, 320, []float64{0, 0, 0.6, 0.3, 0.1}, 0.4)
	ctx := context.Background()

	t.Run("obfuscate", func(t *testing.T) {
		v2, err := ug.Obfuscate(ctx, g,
			ug.WithK(4), ug.WithEps(0.1), ug.WithSeed(5), ug.WithWorkers(2),
			ug.WithObfuscation(ug.ObfuscationParams{Trials: 2, Delta: 1e-3}))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := ug.Obfuscate(ctx, g, ug.WithObfuscation(ug.ObfuscationParams{
			K: 4, Eps: 0.1, Trials: 2, Delta: 1e-3, Seed: 5, Workers: 2,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if v2.Sigma != v1.Sigma || v2.EpsTilde != v1.EpsTilde ||
			v2.G.NumPairs() != v1.G.NumPairs() {
			t.Errorf("option form (σ=%v ε̃=%v pairs=%d) != struct form (σ=%v ε̃=%v pairs=%d)",
				v2.Sigma, v2.EpsTilde, v2.G.NumPairs(), v1.Sigma, v1.EpsTilde, v1.G.NumPairs())
		}
	})

	t.Run("estimate", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		v2, err := ug.EstimateStatistics(ctx, pub,
			ug.WithWorlds(8), ug.WithSeed(7), ug.WithDistances(ug.DistanceExactBFS))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := ug.EstimateStatistics(ctx, pub, ug.WithEstimate(ug.EstimateConfig{
			Worlds: 8, Seed: 7, Distances: ug.DistanceExactBFS,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v2.Samples, v1.Samples) {
			t.Error("option form and struct form sample arrays differ")
		}
	})

	t.Run("statistics", func(t *testing.T) {
		v2, err := ug.Statistics(ctx, g, ug.WithDistances(ug.DistanceExactBFS), ug.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		v1, err := ug.Statistics(ctx, g, ug.WithEstimate(ug.EstimateConfig{
			Distances: ug.DistanceExactBFS, Seed: 3,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v2, v1) {
			t.Errorf("option form %v != struct form %v", v2, v1)
		}
	})

	t.Run("query-batch", func(t *testing.T) {
		pub := ug.CertainGraph(g)
		v2, err := ug.NewQueryBatch(pub, ug.WithWorlds(60), ug.WithSeed(4), ug.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		a := v2.AddReliability(0, 100)
		if err := v2.Run(ctx); err != nil {
			t.Fatal(err)
		}
		v1 := query.NewBatch(pub, ug.QueryConfig{Worlds: 60, Seed: 4, Workers: 2})
		b := v1.AddReliability(0, 100)
		if err := v1.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if v2.Reliability(a) != v1.Reliability(b) {
			t.Errorf("option form %v != struct form %v", v2.Reliability(a), v1.Reliability(b))
		}
	})
}

// TestSharedOptionsOverrideBulkStructs pins the option-merge rule:
// WithSeed/WithWorkers/WithWorlds win over the corresponding fields of
// a bulk struct regardless of argument order.
func TestSharedOptionsOverrideBulkStructs(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(41), 200, 260, []float64{0, 0, 0.6, 0.3, 0.1}, 0.4)
	pub := ug.CertainGraph(g)
	ctx := context.Background()

	// Seed 9 via shared option, stale seed 1 in the struct — the shared
	// option must win even though it appears first.
	a, err := ug.EstimateStatistics(ctx, pub,
		ug.WithSeed(9),
		ug.WithEstimate(ug.EstimateConfig{Worlds: 6, Seed: 1, Distances: ug.DistanceExactBFS}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ug.EstimateStatistics(ctx, pub,
		ug.WithWorlds(6), ug.WithSeed(9), ug.WithDistances(ug.DistanceExactBFS))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Error("shared option did not override the bulk struct's Seed")
	}
}

// TestAdaptiveOptionsPlumbing pins that WithTolerance/WithMaxWorlds
// reach the sampling engine through the facade: a certain graph's
// worlds are identical, so an adaptive run stops at the first block
// barrier with every statistic converged, while the plain fixed run
// burns its whole budget and reports no convergence map.
func TestAdaptiveOptionsPlumbing(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(61), 150, 200, []float64{0, 0, 0.6, 0.3, 0.1}, 0.4)
	pub := ug.CertainGraph(g)
	ctx := context.Background()

	adaptive, err := ug.EstimateStatistics(ctx, pub,
		ug.WithTolerance(0.05), ug.WithMaxWorlds(100), ug.WithSeed(7),
		ug.WithDistances(ug.DistanceExactBFS))
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.WorldsUsed >= 100 || adaptive.WorldsUsed < 2 {
		t.Fatalf("adaptive run used %d worlds, want an early stop within [2, 100)", adaptive.WorldsUsed)
	}
	for _, name := range ug.StatNames {
		if !adaptive.Converged[name] {
			t.Errorf("%s unconverged on a certain graph", name)
		}
	}

	fixed, err := ug.EstimateStatistics(ctx, pub,
		ug.WithWorlds(100), ug.WithSeed(7), ug.WithDistances(ug.DistanceExactBFS))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.WorldsUsed != 100 || fixed.Converged != nil {
		t.Errorf("fixed run WorldsUsed=%d Converged=%v, want 100/nil", fixed.WorldsUsed, fixed.Converged)
	}

	// The adaptive run's samples must be the exact prefix of the fixed
	// run's — the facade preserves the block-prefix determinism contract.
	for _, name := range ug.StatNames {
		if !reflect.DeepEqual(adaptive.Samples[name], fixed.Samples[name][:adaptive.WorldsUsed]) {
			t.Errorf("%s: adaptive samples are not a prefix of the fixed run", name)
		}
	}

	rows, err := ug.RunVector(ctx, pub, func(w *ug.Graph, _ int64) []float64 {
		deg := w.Degrees()
		out := make([]float64, len(deg))
		for i, d := range deg {
			out[i] = float64(d)
		}
		return out
	}, ug.WithTolerance(0.05), ug.WithMaxWorlds(100), ug.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) >= 100 || len(rows) < 2 {
		t.Errorf("facade RunVector used %d worlds, want an early stop within [2, 100)", len(rows))
	}
}

// TestProgressReporting pins the observer contract: monotone Done, the
// configured Total for world-sampling stages, and the right stage name.
func TestProgressReporting(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(51), 150, 200, []float64{0, 0, 0.6, 0.3, 0.1}, 0.4)
	pub := ug.CertainGraph(g)
	var events []ug.Progress
	_, err := ug.EstimateStatistics(context.Background(), pub,
		ug.WithWorlds(5), ug.WithWorkers(1), ug.WithDistances(ug.DistanceExactBFS),
		ug.WithProgress(func(p ug.Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d progress events, want 5", len(events))
	}
	for i, p := range events {
		if p.Stage != ug.StageEstimate || p.Done != i+1 || p.Total != 5 {
			t.Errorf("event %d = %+v, want {estimate %d 5}", i, p, i+1)
		}
	}

	// A Progress callback riding in the bulk struct is honored too: the
	// merge only overrides it when WithProgress is given.
	bulkCalls := 0
	_, err = ug.EstimateStatistics(context.Background(), pub,
		ug.WithEstimate(ug.EstimateConfig{
			Worlds: 3, Workers: 1, Distances: ug.DistanceExactBFS,
			Progress: func(done, total int) { bulkCalls++ },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if bulkCalls != 3 {
		t.Errorf("bulk-struct Progress fired %d times, want 3", bulkCalls)
	}
}
