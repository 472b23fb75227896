package adversary

// This file implements the *a-posteriori belief* anonymity measure used
// by Hay et al. and Ying et al., which the paper's Section 2 contrasts
// with the entropy measure it adopts (following Bonchi et al. [4]): the
// anonymity of a target with property ω is (max_u Y_ω(u))^{-1}, the
// reciprocal of the adversary's best single guess. Bonchi et al. prove
// the entropy-based level 2^H(Y_ω) always dominates it (min-entropy
// bounds Shannon entropy from below); TestEntropyDominatesBelief pins
// that theorem, and the ablation benchmarks use the two measures to
// show why the paper's choice matters.

// ColumnBeliefLevels returns, for every requested property value ω, the
// belief anonymity level (Σ_u X_u(ω)) / (max_u X_u(ω)) = 1/max_u Y_ω(u).
// Columns with zero mass yield level 0. It runs ColumnEntropies'
// chunked scan, so the levels are bit-identical for every worker count
// and GOMAXPROCS.
func ColumnBeliefLevels(m Model, omegas []int) map[int]float64 {
	type agg struct{ sum, max float64 }
	chunks := scanChunks(m, omegas, func(a *agg, p float64) {
		a.sum += p
		if p > a.max {
			a.max = p
		}
	}, nil)
	out := make(map[int]float64, len(omegas))
	if chunks == nil {
		return out
	}
	merged := make([]agg, len(omegas))
	for _, acc := range chunks {
		if acc == nil {
			continue
		}
		for i, a := range acc {
			merged[i].sum += a.sum
			if a.max > merged[i].max {
				merged[i].max = a.max
			}
		}
	}
	for i, omega := range omegas {
		if merged[i].max > 0 {
			out[omega] = merged[i].sum / merged[i].max
		} else {
			out[omega] = 0
		}
	}
	return out
}

// BeliefLevels returns the per-vertex belief anonymity level
// 1/max_u Y_{P(v)}(u), aligned with the property assignment.
func BeliefLevels(m Model, values []int) []float64 {
	cols := ColumnBeliefLevels(m, DistinctValues(values))
	out := make([]float64, len(values))
	for v, val := range values {
		out[v] = cols[val]
	}
	return out
}
