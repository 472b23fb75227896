package sampling_test

// Regression pins for the CSR/world-engine refactor: the obfuscation
// output (σ, ε̃) and every Table-4 statistic mean and Table-5 relative
// SEM must be bit-for-bit identical to the pre-refactor representation
// (per-vertex adjacency slices, fresh graph per world). The constants
// below were produced by the pre-refactor code at commit "PR 1" with
// the exact configs used here; any divergence means the RNG draw
// order, the adjacency order, or a float summation order changed.

import (
	"context"
	"reflect"
	"testing"

	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/uncertain"
)

// regressionPublished rebuilds the pinned scenario: tiny dblp stand-in,
// k=5 eps=0.3 t=2 delta=1e-4 seed=42.
func regressionPublished(t *testing.T) *uncertain.Graph {
	t.Helper()
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := d.Graph.NumVertices(), d.Graph.NumEdges(); n != 566 || m != 1679 {
		t.Fatalf("fixture drifted: n=%d m=%d, want 566/1679", n, m)
	}
	res, err := core.Obfuscate(context.Background(), d.Graph, core.Params{
		K: 5, Eps: 0.3, Trials: 2, Delta: 1e-4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma != 6.103515625e-05 {
		t.Errorf("sigma = %.17g, want 6.103515625e-05", res.Sigma)
	}
	if res.EpsTilde != 0.10070671378091872 {
		t.Errorf("epsTilde = %.17g, want 0.10070671378091872", res.EpsTilde)
	}
	if res.G.NumPairs() != 3358 {
		t.Errorf("pairs = %d, want 3358", res.G.NumPairs())
	}
	return res.G
}

type pinnedStat struct {
	mean, relsem float64
}

var regressionPins = []struct {
	cfg   sampling.Config
	exact [2]float64 // ExactNE, ExactAD
	stats map[string]pinnedStat
}{
	{
		cfg:   sampling.Config{Worlds: 24, Seed: 7, Distances: sampling.DistanceExactBFS},
		exact: [2]float64{1667.8738815315087, 5.8935472845636347},
		stats: map[string]pinnedStat{
			"S_NE":     {1668, 0},
			"S_AD":     {5.8939929328621927, 6.2842967364053465e-17},
			"S_MD":     {83, 0},
			"S_DV":     {125.20431020489684, 4.7333323259260647e-17},
			"S_PL":     {-1.010691591818585, 9.1619443686414162e-17},
			"S_APD":    {3.3689587477074898, 8.2457823008934375e-17},
			"S_DiamLB": {8, 0},
			"S_EDiam":  {3.9417973062486182, 1.1745784243416737e-16},
			"S_CL":     {3.2099249137142603, 5.769543143226189e-17},
			"S_CC":     {0.090092041147807236, 3.2119582998539699e-17},
		},
	},
	{
		cfg:   sampling.Config{Worlds: 16, Seed: 9, Distances: sampling.DistanceANF},
		exact: [2]float64{1667.8738815315087, 5.8935472845636347},
		stats: map[string]pinnedStat{
			"S_NE":     {1667.875, 5.1197635544028569e-05},
			"S_AD":     {5.8935512367491167, 5.1197635544028915e-05},
			"S_MD":     {83, 0},
			"S_DV":     {125.17417966262506, 0.00017660547937815388},
			"S_PL":     {-1.0093300786258188, 0.0032850892990042638},
			"S_APD":    {3.355537417435968, 0.0035600835091244083},
			"S_DiamLB": {7.25, 0.01542115846551579},
			"S_EDiam":  {3.9291966292689975, 0.0020706293423706037},
			"S_CL":     {3.2716959345881409, 0.015169462552010385},
			"S_CC":     {0.090060167897790061, 0.00038129652748135828},
		},
	},
	{
		// The distance-derived pins (S_APD, S_DiamLB, S_EDiam, S_CL)
		// were re-pinned once in PR 7: bfs source sampling moved from
		// rng.Perm(n)[:samples] to a partial Fisher–Yates (exactly
		// `samples` Intn draws instead of n), a seed-visible RNG-stream
		// change. The new draw order is itself pinned by
		// TestSampleSourcesDrawOrder in internal/bfs; every
		// non-distance statistic is untouched, as is every pin of the
		// exact-BFS and ANF configs above.
		cfg: sampling.Config{
			Worlds: 12, Seed: 11,
			Distances: sampling.DistanceSampledBFS, BFSSources: 64,
		},
		exact: [2]float64{1667.8738815315087, 5.8935472845636347},
		stats: map[string]pinnedStat{
			"S_NE":     {1667.9166666666667, 4.996252810392205e-05},
			"S_AD":     {5.8936984687868081, 4.9962528103922423e-05},
			"S_MD":     {83, 0},
			"S_DV":     {125.18893460192179, 0.00012281918544882226},
			"S_PL":     {-1.0082291294088139, 0.0024423638813285357},
			"S_APD":    {3.353386034739847, 0.0069821783073091967},
			"S_DiamLB": {7.25, 0.018008033374727367},
			"S_EDiam":  {3.9455892794173804, 0.0082118431632953355},
			"S_CL":     {3.2037968963286745, 0.010200374795099897},
			"S_CC":     {0.090080870126105231, 0.00012401103237982619},
		},
	},
}

// TestRegressionPinnedStatistics checks bit-exact agreement with the
// pre-refactor pipeline for all three distance estimators.
func TestRegressionPinnedStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("obfuscation fixture is slow; run without -short")
	}
	ug := regressionPublished(t)
	for _, pin := range regressionPins {
		rep, err := sampling.Run(context.Background(), ug, pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ExactNE != pin.exact[0] || rep.ExactAD != pin.exact[1] {
			t.Errorf("cfg %+v: exact (%.17g, %.17g), want (%.17g, %.17g)",
				pin.cfg, rep.ExactNE, rep.ExactAD, pin.exact[0], pin.exact[1])
		}
		for _, name := range sampling.StatNames {
			want := pin.stats[name]
			if got := rep.Mean(name); got != want.mean {
				t.Errorf("cfg %+v: mean %s = %.17g, want %.17g", pin.cfg, name, got, want.mean)
			}
			if got := rep.RelSEM(name); got != want.relsem {
				t.Errorf("cfg %+v: relsem %s = %.17g, want %.17g", pin.cfg, name, got, want.relsem)
			}
		}
	}
}

// TestRunWorkerCountBitIdentity checks the satellite requirement that
// Config.Workers ∈ {1, 4} produce identical Table-4/Table-5 outputs —
// the full per-world sample arrays, hence every derived mean, SEM and
// relative error — for a fixed seed.
func TestRunWorkerCountBitIdentity(t *testing.T) {
	ug := smallUncertain(t)
	for _, cfg := range []sampling.Config{
		{Worlds: 10, Seed: 3, Distances: sampling.DistanceExactBFS},
		{Worlds: 10, Seed: 3, Distances: sampling.DistanceANF},
	} {
		cfg1 := cfg
		cfg1.Workers = 1
		cfg4 := cfg
		cfg4.Workers = 4
		rep1, err1 := sampling.Run(context.Background(), ug, cfg1)
		rep4, err4 := sampling.Run(context.Background(), ug, cfg4)
		if err1 != nil || err4 != nil {
			t.Fatal(err1, err4)
		}
		if !reflect.DeepEqual(rep1.Samples, rep4.Samples) {
			t.Errorf("dist=%d: Workers=1 and Workers=4 sample arrays differ", cfg.Distances)
		}
		for _, name := range sampling.StatNames {
			if m1, m4 := rep1.Mean(name), rep4.Mean(name); m1 != m4 {
				t.Errorf("dist=%d: %s mean %v != %v across worker counts", cfg.Distances, name, m1, m4)
			}
			if s1, s4 := rep1.RelSEM(name), rep4.RelSEM(name); s1 != s4 {
				t.Errorf("dist=%d: %s relsem %v != %v across worker counts", cfg.Distances, name, s1, s4)
			}
		}
	}
}

// TestRunIntraWorldBitIdentity pins the worlds-scarce regime: with
// fewer worlds than workers (three worlds at 1, 2 and 8 workers, so
// some lanes stay idle) the report must stay bit-identical to the
// sequential configuration for both BFS estimators.
func TestRunIntraWorldBitIdentity(t *testing.T) {
	ug := smallUncertain(t)
	for _, cfg := range []sampling.Config{
		{Worlds: 3, Seed: 21, Distances: sampling.DistanceExactBFS},
		{Worlds: 3, Seed: 21, Distances: sampling.DistanceSampledBFS, BFSSources: 16},
	} {
		var reps []*sampling.Report
		for _, workers := range []int{1, 2, 8} {
			c := cfg
			c.Workers = workers
			rep, err := sampling.Run(context.Background(), ug, c)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		for i := 1; i < len(reps); i++ {
			if !reflect.DeepEqual(reps[0].Samples, reps[i].Samples) {
				t.Errorf("dist=%d: sample arrays diverge between worker configs 0 and %d", cfg.Distances, i)
			}
		}
	}
}

// TestRunVectorWorkerCountBitIdentity extends the worker-equivalence
// check to the vector pipeline behind Figures 2 and 3.
func TestRunVectorWorkerCountBitIdentity(t *testing.T) {
	ug := smallUncertain(t)
	fn := func(g *graph.Graph, _ int64) []float64 {
		deg := g.Degrees()
		out := make([]float64, len(deg))
		for i, d := range deg {
			out[i] = float64(d)
		}
		return out
	}
	rows1, err1 := sampling.RunVector(context.Background(), ug, sampling.Config{Worlds: 8, Seed: 5, Workers: 1}, fn)
	rows4, err4 := sampling.RunVector(context.Background(), ug, sampling.Config{Worlds: 8, Seed: 5, Workers: 4}, fn)
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if !reflect.DeepEqual(rows1, rows4) {
		t.Error("RunVector rows differ across worker counts")
	}
}

// TestScalarsOfHonorsWorkers pins the satellite fix: the one-shot
// evaluation's BFS scans now follow cfg.Workers (1 is fully
// sequential, larger values fan out) with bit-identical results.
func TestScalarsOfHonorsWorkers(t *testing.T) {
	g := gen.HolmeKim(randx.New(3), 120, 3, 0.3)
	for _, distances := range []sampling.DistanceMethod{sampling.DistanceExactBFS, sampling.DistanceSampledBFS} {
		base := sampling.ScalarsOf(g, sampling.Config{Distances: distances, BFSSources: 16, Workers: 1}, 5)
		for _, workers := range []int{0, 2, 8} {
			got := sampling.ScalarsOf(g, sampling.Config{Distances: distances, BFSSources: 16, Workers: workers}, 5)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("dist=%d workers=%d: scalars diverge from sequential", distances, workers)
			}
		}
	}
}

// smallUncertain builds a fast deterministic uncertain graph fixture.
func smallUncertain(t *testing.T) *uncertain.Graph {
	t.Helper()
	var pairs []uncertain.Pair
	n := 40
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			// Deterministic pseudo-probabilities spanning [0, 1].
			h := (u*2654435761 + v*40503) % 97
			if h%3 == 0 {
				continue
			}
			pairs = append(pairs, uncertain.Pair{U: u, V: v, P: float64(h) / 96})
		}
	}
	ug, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return ug
}
