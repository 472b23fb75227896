package sampling_test

// Adaptive-precision tests: the block-scheduled run must stop early
// exactly when every statistic's relative SEM is inside the tolerance,
// and stopping must never change what any world measures — a stopped
// run is bit-identical to the same-length prefix of a full fixed-budget
// run, for every worker count (PR 5's early-exit test discipline).

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/uncertain"
	"uncertaingraph/internal/worldloop"
)

// TestAdaptiveNeverConvergingMatchesFixedRun pins the core property:
// an adaptive run whose tolerance is unreachably tight walks the block
// schedule to the full budget and must reproduce the fixed-r run
// bit-identically — the barriers may cost time, never bits.
func TestAdaptiveNeverConvergingMatchesFixedRun(t *testing.T) {
	ug := smallUncertain(t)
	for _, dist := range []sampling.DistanceMethod{sampling.DistanceExactBFS, sampling.DistanceANF} {
		fixed := sampling.Config{Worlds: 70, Seed: 3, Distances: dist}
		adaptive := fixed
		adaptive.Tolerance = math.SmallestNonzeroFloat64
		repF, errF := sampling.Run(context.Background(), ug, fixed)
		repA, errA := sampling.Run(context.Background(), ug, adaptive)
		if errF != nil || errA != nil {
			t.Fatal(errF, errA)
		}
		if repA.WorldsUsed != 70 {
			t.Fatalf("dist=%d: never-converging run used %d worlds, want the full 70", dist, repA.WorldsUsed)
		}
		if !reflect.DeepEqual(repF.Samples, repA.Samples) {
			t.Errorf("dist=%d: block-scheduled full run differs from fixed run", dist)
		}
		if repF.WorldsUsed != 70 || repF.Converged != nil {
			t.Errorf("dist=%d: fixed run WorldsUsed=%d Converged=%v, want 70/nil", dist, repF.WorldsUsed, repF.Converged)
		}
	}
}

// nearCertain builds a convergence-friendly fixture: the tiny dblp
// stand-in's power-law topology (so the S_PL fit is meaningful — on
// small random graphs like smallUncertain its relative SEM stays ≈0.47
// even after 400 worlds) with high edge probabilities in [0.9, 1), so
// worlds differ only slightly and every statistic's relative SEM
// shrinks fast. The slow obfuscation step is deliberately skipped; the
// probabilities are synthetic.
func nearCertain(t *testing.T) *uncertain.Graph {
	t.Helper()
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	pairs := make([]uncertain.Pair, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int) {
		h := (u*2654435761 + v*40503) % 97
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: 0.9 + float64(h)/970})
	})
	ug, err := uncertain.New(g.NumVertices(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	return ug
}

// TestAdaptiveStopsEarlyPrefixBitIdentity checks that a converging
// adaptive run stops short of its budget and that its sample arrays
// are bit-identical to the same-length prefix of the fixed full-budget
// run, for Workers ∈ {1, 4}.
func TestAdaptiveStopsEarlyPrefixBitIdentity(t *testing.T) {
	ug := nearCertain(t)
	base := sampling.Config{Seed: 3, Distances: sampling.DistanceANF, Tolerance: 0.05, MaxWorlds: 200}

	cfg1 := base
	cfg1.Workers = 1
	cfg4 := base
	cfg4.Workers = 4
	rep1, err1 := sampling.Run(context.Background(), ug, cfg1)
	rep4, err4 := sampling.Run(context.Background(), ug, cfg4)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if rep1.WorldsUsed >= 200 || rep1.WorldsUsed < 2 {
		t.Fatalf("adaptive run used %d worlds, want an early stop within [2, 200)", rep1.WorldsUsed)
	}
	if rep1.WorldsUsed != rep4.WorldsUsed {
		t.Fatalf("stopping point differs across worker counts: %d vs %d", rep1.WorldsUsed, rep4.WorldsUsed)
	}
	if !reflect.DeepEqual(rep1.Samples, rep4.Samples) {
		t.Error("adaptive sample arrays differ across worker counts")
	}
	for _, name := range sampling.StatNames {
		if !rep1.Converged[name] {
			t.Errorf("%s unconverged in a run that stopped early", name)
		}
	}

	full := sampling.Config{Worlds: 200, Seed: 3, Distances: sampling.DistanceANF}
	repFull, err := sampling.Run(context.Background(), ug, full)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sampling.StatNames {
		prefix := repFull.Samples[name][:rep1.WorldsUsed]
		if !reflect.DeepEqual(rep1.Samples[name], prefix) {
			t.Errorf("%s: stopped-run samples are not a bit-identical prefix of the fixed run", name)
		}
	}
}

// TestAdaptiveDBLPStopsUnderFixedDefault is the acceptance pin on the
// published dblp fixture: a WithTolerance(0.05)-style run stops with
// measurably fewer worlds than the fixed default (100), and the
// stopped run is a bit-identical prefix of the fixed-budget run for
// Workers ∈ {1, 4}.
func TestAdaptiveDBLPStopsUnderFixedDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("obfuscation fixture is slow; run without -short")
	}
	ug := regressionPublished(t)
	base := sampling.Config{Seed: 9, Distances: sampling.DistanceANF, Tolerance: 0.05, MaxWorlds: 100}

	cfg1 := base
	cfg1.Workers = 1
	cfg4 := base
	cfg4.Workers = 4
	rep1, err1 := sampling.Run(context.Background(), ug, cfg1)
	rep4, err4 := sampling.Run(context.Background(), ug, cfg4)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	// The pinned 16-world run already has every relative SEM below
	// 0.0155, so the first barrier (32 worlds) must satisfy 0.05 — far
	// under the fixed default of 100 worlds.
	if rep1.WorldsUsed >= 100 || rep1.WorldsUsed < 2 {
		t.Fatalf("dblp adaptive run used %d worlds, want an early stop within [2, 100)", rep1.WorldsUsed)
	}
	if rep1.WorldsUsed != rep4.WorldsUsed || !reflect.DeepEqual(rep1.Samples, rep4.Samples) {
		t.Error("dblp adaptive run differs across worker counts")
	}
	for _, name := range sampling.StatNames {
		if !rep1.Converged[name] {
			t.Errorf("%s unconverged in the early-stopped dblp run", name)
		}
	}

	repFull, err := sampling.Run(context.Background(), ug, sampling.Config{Worlds: 100, Seed: 9, Distances: sampling.DistanceANF})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sampling.StatNames {
		prefix := repFull.Samples[name][:rep1.WorldsUsed]
		if !reflect.DeepEqual(rep1.Samples[name], prefix) {
			t.Errorf("%s: dblp stopped-run samples are not a bit-identical prefix of the fixed run", name)
		}
	}
}

// TestAdaptiveCancelRerunIdentity extends PR 4's cancel contract to
// adaptive runs: a cancelled adaptive run returns ctx.Err() with no
// report, and a subsequent uncancelled run with the same config is
// bit-identical to one that was never preceded by a cancellation.
func TestAdaptiveCancelRerunIdentity(t *testing.T) {
	ug := nearCertain(t)
	cfg := sampling.Config{Seed: 3, Distances: sampling.DistanceANF, Tolerance: 0.05, MaxWorlds: 200}

	ref, err := sampling.Run(context.Background(), ug, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelCfg := cfg
	cancelCfg.Progress = func(done, total int) {
		if done >= 5 {
			cancel()
		}
	}
	if rep, err := sampling.Run(ctx, ug, cancelCfg); err == nil || rep != nil {
		t.Fatalf("cancelled run returned rep=%v err=%v, want nil report and ctx error", rep, err)
	}
	if rows, err := sampling.RunVector(ctx, ug, cfg, degreeRow); !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("cancelled RunVector returned %d rows, err=%v; want no rows and context.Canceled", len(rows), err)
	}

	again, err := sampling.Run(context.Background(), ug, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.WorldsUsed != ref.WorldsUsed || !reflect.DeepEqual(again.Samples, ref.Samples) {
		t.Error("re-run after cancellation differs from a never-cancelled run")
	}
}

// TestAdaptiveBudgetExhaustedReportsUnconverged drives a tolerance no
// finite sample can meet into a tiny budget: the run must use the full
// budget and mark the noisy statistics unconverged rather than lying.
func TestAdaptiveBudgetExhaustedReportsUnconverged(t *testing.T) {
	ug := smallUncertain(t)
	cfg := sampling.Config{Seed: 3, Distances: sampling.DistanceExactBFS, Tolerance: 1e-18, MaxWorlds: 40}
	rep, err := sampling.Run(context.Background(), ug, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorldsUsed != 40 {
		t.Fatalf("budget-bound run used %d worlds, want 40", rep.WorldsUsed)
	}
	anyUnconverged := false
	for _, name := range sampling.StatNames {
		if !rep.Converged[name] {
			anyUnconverged = true
		}
	}
	if !anyUnconverged {
		t.Error("every statistic claims convergence at an impossible tolerance")
	}
}

// degreeRow is a fixed-length vector statistic: every vertex's degree.
func degreeRow(g *graph.Graph, _ int64) []float64 {
	deg := g.Degrees()
	out := make([]float64, len(deg))
	for i, d := range deg {
		out[i] = float64(d)
	}
	return out
}

// TestAdaptiveRunVectorPrefixBitIdentity mirrors the scalar prefix
// property on the vector pipeline, including the worker-count check,
// for fixed-length rows and for degree distributions, whose rows
// differ in length and are zero-padded by the convergence test.
func TestAdaptiveRunVectorPrefixBitIdentity(t *testing.T) {
	ug := smallUncertain(t)
	degreeDist := func(g *graph.Graph, _ int64) []float64 { return stats.DegreeDistribution(g) }
	for name, c := range map[string]struct {
		fn  sampling.VectorFn
		tol float64
	}{
		"degrees":      {degreeRow, 0.05},
		"distribution": {degreeDist, 0.5},
	} {
		base := sampling.Config{Seed: 5, Tolerance: c.tol, MaxWorlds: 400}
		cfg1 := base
		cfg1.Workers = 1
		cfg4 := base
		cfg4.Workers = 4
		rows1, err1 := sampling.RunVector(context.Background(), ug, cfg1, c.fn)
		rows4, err4 := sampling.RunVector(context.Background(), ug, cfg4, c.fn)
		if err1 != nil || err4 != nil {
			t.Fatal(err1, err4)
		}
		if len(rows1) >= 400 || len(rows1) < 2 {
			t.Fatalf("%s: adaptive RunVector used %d worlds, want an early stop within [2, 400)", name, len(rows1))
		}
		if !reflect.DeepEqual(rows1, rows4) {
			t.Errorf("%s: adaptive RunVector rows differ across worker counts", name)
		}
		full, err := sampling.RunVector(context.Background(), ug, sampling.Config{Worlds: 400, Seed: 5}, c.fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows1, full[:len(rows1)]) {
			t.Errorf("%s: stopped RunVector rows are not a bit-identical prefix of the fixed run", name)
		}
	}
}

// TestAdaptiveCertainGraphStopsAtFirstBarrier is the degenerate
// fast-path: on a certain graph every world is identical, every SEM is
// 0, and the run must stop at the first block barrier.
func TestAdaptiveCertainGraphStopsAtFirstBarrier(t *testing.T) {
	pairs := []uncertain.Pair{
		{U: 0, V: 1, P: 1}, {U: 1, V: 2, P: 1}, {U: 2, V: 3, P: 1}, {U: 3, V: 0, P: 1},
	}
	ug, err := uncertain.New(4, pairs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampling.Config{Seed: 1, Distances: sampling.DistanceExactBFS, Tolerance: 0.05, MaxWorlds: 300}
	rep, err := sampling.Run(context.Background(), ug, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorldsUsed != worldloop.Block {
		t.Errorf("certain graph used %d worlds, want one block (%d)", rep.WorldsUsed, worldloop.Block)
	}
	for _, name := range sampling.StatNames {
		if !rep.Converged[name] {
			t.Errorf("%s unconverged on a certain graph", name)
		}
	}
}
