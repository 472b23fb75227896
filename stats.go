package uncertaingraph

import (
	"context"

	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/stats"
)

// StatNames lists the ten scalar statistics of the paper's evaluation,
// in Table 4 order: S_NE, S_AD, S_MD, S_DV, S_PL, S_APD, S_DiamLB,
// S_EDiam, S_CL, S_CC.
var StatNames = sampling.StatNames

// EstimateConfig tunes statistic estimation on uncertain graphs. New
// code passes the estimation knobs via WithEstimate (plus WithWorlds,
// WithSeed, WithWorkers, WithDistances); the struct remains the
// exchange format between the two layers.
type EstimateConfig = sampling.Config

// EstimateReport aggregates per-world statistic samples: means,
// relative SEMs and relative errors.
type EstimateReport = sampling.Report

// DistanceMethod selects how per-world distance distributions are
// computed (see the estimator constants below); pass it via
// WithDistances.
type DistanceMethod = sampling.DistanceMethod

// Distance estimators for the distance-based statistics.
const (
	// DistanceANF estimates distances with HyperANF (the paper's
	// method).
	DistanceANF = sampling.DistanceANF
	// DistanceExactBFS computes them exactly (small graphs).
	DistanceExactBFS = sampling.DistanceExactBFS
	// DistanceSampledBFS scales BFS trees from sampled sources.
	DistanceSampledBFS = sampling.DistanceSampledBFS
)

// Statistics evaluates the ten paper statistics on a certain graph.
// Cancellation is coarse: ctx is checked on entry (a single graph's
// evaluation is one unit of work); option validation failures return
// an error wrapping ErrBadConfig.
func Statistics(ctx context.Context, g *Graph, opts ...Option) (map[string]float64, error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cfg := s.estimateConfig(StageEstimate)
	return sampling.ScalarsOf(g, cfg, cfg.Seed), nil
}

// EstimateStatistics samples possible worlds of an uncertain graph and
// returns the aggregated statistic report (paper Section 6.1).
//
//	rep, err := uncertaingraph.EstimateStatistics(ctx, pub,
//	    uncertaingraph.WithWorlds(100), uncertaingraph.WithSeed(7))
//
// Worlds are evaluated on WithWorkers goroutines under the shared
// determinism contract: world i's RNG stream derives from (seed, i)
// alone, so the report is bit-identical for every worker count.
// Cancelling ctx aborts between worlds, joins every worker, and
// returns ctx.Err() with no partial report; option validation failures
// return an error wrapping ErrBadConfig. A nil ctx never cancels.
func EstimateStatistics(ctx context.Context, ug *UncertainGraph, opts ...Option) (*EstimateReport, error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	return sampling.Run(ctx, ug, s.estimateConfig(StageEstimate))
}

// VectorFn maps a sampled world to a vector statistic (degree
// distribution, distance distribution fractions, ...). The graph
// passed to fn is only valid for the duration of the call; the
// returned slice must not alias it.
type VectorFn = sampling.VectorFn

// RunVector evaluates a vector statistic on each sampled world of an
// uncertain graph, returning one row per world (rows may have
// different lengths; callers typically pad or box-summarize). It obeys
// the same options, cancellation and determinism contract as
// EstimateStatistics; with WithTolerance the run stops early once
// every coordinate's relative SEM is inside the tolerance (shorter
// rows contribute 0 beyond their length), and the returned rows are
// bit-identical to the same-length prefix of a full fixed-budget run.
func RunVector(ctx context.Context, ug *UncertainGraph, fn VectorFn, opts ...Option) ([][]float64, error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	return sampling.RunVector(ctx, ug, s.estimateConfig(StageEstimate), fn)
}

// DistanceDistribution is the S_PDD shape shared by the exact and
// estimated distance pipelines.
type DistanceDistribution = stats.DistanceDistribution

// ExactDistances computes the exact pairwise distance distribution by
// all-sources BFS.
func ExactDistances(g *Graph) DistanceDistribution { return bfs.DistanceDistribution(g) }

// ApproxDistances estimates the distance distribution with HyperANF
// using 2^bits registers per counter. bits must be 0 (the default, 7)
// or in [4, 16]; any other value panics.
func ApproxDistances(g *Graph, bits int, seed uint64) DistanceDistribution {
	return anf.DistanceDistribution(g, anf.Options{Bits: bits, Seed: seed})
}

// ClusteringCoefficient returns the paper's S_CC = T3/T2.
func ClusteringCoefficient(g *Graph) float64 { return stats.ClusteringCoefficient(g) }

// DegreeDistribution returns the fraction of vertices per degree.
func DegreeDistribution(g *Graph) []float64 { return stats.DegreeDistribution(g) }
