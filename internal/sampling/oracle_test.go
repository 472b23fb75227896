package sampling_test

import (
	"context"
	"math"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/uncertain"
)

// The check below compares Run's statistic means with their exact
// expectations under the possible-world model (paper Eq. 1),
// enumerated over all 2^m worlds of a small fixture. Each world's
// statistic lies in a fixed range [0, R], so by Hoeffding the mean of
// r independent worlds lies within R·√(ln(2/δ)/(2r)) of its
// expectation with probability ≥ 1−δ. Seeds are fixed, so each check
// is deterministic; a failure means the pipeline, not the draw, is off.

// oracleDelta is the failure probability one oracle assertion allows.
const oracleDelta = 1e-6

// maxOraclePairs bounds the fixtures the oracle enumerates.
const maxOraclePairs = 12

func oracleEps(r int) float64 {
	return math.Sqrt(math.Log(2/oracleDelta) / (2 * float64(r)))
}

// oracleFixtures returns the enumeration fixtures: 12 coin pairs each
// (every p strictly inside (0, 1)), one dense graph on 6 vertices and
// one sparse graph on 10 whose worlds are often disconnected.
func oracleFixtures(t *testing.T) map[string]*uncertain.Graph {
	t.Helper()
	specs := map[string]struct {
		n     int
		pairs []uncertain.Pair
	}{
		"dense6": {6, []uncertain.Pair{
			{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.5}, {U: 0, V: 3, P: 0.2},
			{U: 1, V: 2, P: 0.7}, {U: 1, V: 4, P: 0.3}, {U: 2, V: 3, P: 0.6},
			{U: 2, V: 5, P: 0.1}, {U: 3, V: 4, P: 0.8}, {U: 3, V: 5, P: 0.4},
			{U: 4, V: 5, P: 0.5}, {U: 0, V: 5, P: 0.35}, {U: 1, V: 3, P: 0.65},
		}},
		"sparse10": {10, []uncertain.Pair{
			{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.8}, {U: 2, V: 3, P: 0.7},
			{U: 3, V: 4, P: 0.6}, {U: 4, V: 5, P: 0.5}, {U: 5, V: 6, P: 0.6},
			{U: 6, V: 7, P: 0.7}, {U: 7, V: 8, P: 0.8}, {U: 8, V: 9, P: 0.9},
			{U: 0, V: 5, P: 0.3}, {U: 2, V: 7, P: 0.2}, {U: 4, V: 9, P: 0.15},
		}},
	}
	out := make(map[string]*uncertain.Graph, len(specs))
	for name, s := range specs {
		g, err := uncertain.New(s.n, s.pairs)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// exactStatistics enumerates every possible world of g and returns the
// Eq. 1-weighted expectation of each statistic, each world measured by
// ScalarsOf with exact BFS distances. Statistics that are infinite on
// some world (S_CL on an edgeless one) come back +Inf.
func exactStatistics(t *testing.T, g *uncertain.Graph) map[string]float64 {
	t.Helper()
	pairs := g.Pairs()
	if len(pairs) > maxOraclePairs {
		t.Fatalf("oracle fixture has %d pairs, want <= %d", len(pairs), maxOraclePairs)
	}
	n := g.NumVertices()
	cfg := sampling.Config{Distances: sampling.DistanceExactBFS, Workers: 1}
	exact := make(map[string]float64, len(sampling.StatNames))
	var total float64
	edges := make([]graph.Edge, 0, len(pairs))
	for mask := 0; mask < 1<<len(pairs); mask++ {
		world := make(map[int]bool, len(pairs))
		edges = edges[:0]
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				world[i] = true
				edges = append(edges, graph.Edge{U: p.U, V: p.V})
			}
		}
		w := math.Exp(g.WorldLogProb(world))
		total += w
		for name, v := range sampling.ScalarsOf(graph.FromEdges(n, edges), cfg, 0) {
			exact[name] += w * v
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("world probabilities sum to %v", total)
	}
	return exact
}

// oracleRanges is each asserted statistic's range [0, R] on a world
// with n vertices and m candidate pairs. S_PL has no fixed range, and
// S_CL's expectation is +Inf whenever a world can be edgeless (every
// fixture here), so neither is asserted.
func oracleRanges(n, m int) map[string]float64 {
	d := float64(n - 1)
	return map[string]float64{
		"S_NE": float64(m), "S_AD": d, "S_MD": d, "S_DV": d * d,
		"S_APD": d, "S_DiamLB": d, "S_EDiam": d, "S_CC": 1,
	}
}

// TestRunMatchesExactOracle checks the statistics pipeline's answers:
// every bounded statistic's mean over 4,000 worlds with exact BFS
// distances lies within the Hoeffding radius, scaled to the
// statistic's range, of its exact expectation, at Workers 1 and 2.
// HyperANF's deviation from the same expectations is logged, not
// asserted: it is an estimator with its own bias.
func TestRunMatchesExactOracle(t *testing.T) {
	const r = 4000
	eps := oracleEps(r)
	worst, worstName := 0.0, ""
	for name, g := range oracleFixtures(t) {
		exact := exactStatistics(t, g)
		if !math.IsInf(exact["S_CL"], 1) {
			t.Errorf("%s: exact S_CL = %v, want +Inf (edgeless worlds are possible)", name, exact["S_CL"])
		}
		ranges := oracleRanges(g.NumVertices(), g.NumPairs())
		for _, workers := range []int{1, 2} {
			rep, err := sampling.Run(context.Background(), g, sampling.Config{
				Worlds: r, Seed: 27, Workers: workers, Distances: sampling.DistanceExactBFS,
			})
			if err != nil {
				t.Fatal(err)
			}
			for stat, rng := range ranges {
				got, want := rep.Mean(stat), exact[stat]
				radius := eps * rng
				if !(math.Abs(got-want) <= radius) {
					t.Errorf("%s workers=%d: mean %s = %.6g, exact %.6g: |error| %.4g > Hoeffding radius %.4g (r = %d, δ = %g)",
						name, workers, stat, got, want, math.Abs(got-want), radius, r, oracleDelta)
				}
				if ratio := math.Abs(got-want) / radius; ratio > worst {
					worst, worstName = ratio, stat
				}
			}
		}
		rep, err := sampling.Run(context.Background(), g, sampling.Config{
			Worlds: r, Seed: 27, Workers: 1, Distances: sampling.DistanceANF,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, stat := range []string{"S_APD", "S_DiamLB", "S_EDiam"} {
			got, want := rep.Mean(stat), exact[stat]
			t.Logf("%s: HyperANF mean %s = %.4f, exact %.4f (%+.2f%%; Hoeffding radius %.4f)",
				name, stat, got, want, 100*(got-want)/want, eps*ranges[stat])
		}
	}
	t.Logf("largest |mean − exact| = %.3g of its Hoeffding radius (%s; ε = %.4g per unit of range, r = %d, δ = %g)",
		worst, worstName, eps, r, oracleDelta)
}
