package uncertaingraph

import (
	"context"
	"math/rand"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/randx"
)

// ObfuscationParams configures the (k, ε)-obfuscation algorithm; zero
// fields select the paper's defaults (c=2, q=0.01, t=5, δ=1e-8).
//
// Workers bounds the engine's busy goroutines (0 = all CPUs): the σ
// search runs one probe at a time, the probe's trials run in parallel,
// and the adversary scan gets whatever share of Workers the trials
// leave. Results are bit-identical for every Workers value — each
// (σ, trial) pair derives its own RNG stream from Seed, so parallelism
// trades wall-clock time only.
//
// New code passes the domain knobs via WithObfuscation (plus WithK,
// WithEps) and the shared Seed/Workers/Progress knobs via their
// options; the struct remains the exchange format between the two
// layers.
type ObfuscationParams = core.Params

// ObfuscationResult is the output of Obfuscate: the published uncertain
// graph, the minimal σ found, and the achieved ε̃.
type ObfuscationResult = core.Result

// ErrNoObfuscation is returned when no (k, ε)-obfuscation exists within
// the σ search range; raising C is the paper's remedy.
var ErrNoObfuscation = core.ErrNoObfuscation

// Obfuscate runs Algorithm 1 of the paper: a binary search over the
// noise parameter σ for the minimal uncertainty injection making g a
// (k, ε)-obfuscation with respect to the degree property.
//
//	res, err := uncertaingraph.Obfuscate(ctx, g,
//	    uncertaingraph.WithK(20), uncertaingraph.WithEps(1e-3),
//	    uncertaingraph.WithSeed(1), uncertaingraph.WithWorkers(8))
//
// The search runs on WithWorkers goroutines (default all CPUs) with one
// determinism contract: every RNG stream is derived from the WithSeed
// base seed, so the result is bit-identical for every worker count.
// Cancelling ctx aborts the search at trial/scan-chunk granularity,
// joins every trial goroutine, and returns ctx.Err(); option validation
// failures return an error wrapping ErrBadConfig before any work
// starts. A nil ctx never cancels.
func Obfuscate(ctx context.Context, g *Graph, opts ...Option) (*ObfuscationResult, error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	p := s.obfuscationParams()
	// Re-validate the merged params: k and eps may arrive through the
	// WithObfuscation bulk struct (or not at all), bypassing WithK and
	// WithEps — the ErrBadConfig contract must hold either way.
	if err := validateKEps(p.K, p.Eps); err != nil {
		return nil, err
	}
	return core.Obfuscate(ctx, g, p)
}

// VerifyObfuscation independently checks whether the uncertain graph
// k-obfuscates all but an eps-fraction of the original vertices
// (Definition 2), given the original graph's degrees.
func VerifyObfuscation(ug *UncertainGraph, originalDegrees []int, k, eps float64) bool {
	return adversary.IsKEpsObfuscation(
		adversary.UncertainModel{G: ug}, originalDegrees, k, eps)
}

// ObfuscationLevels returns each original vertex's obfuscation level
// 2^H(Y_{deg(v)}) under the published uncertain graph: the effective
// crowd size it hides in.
func ObfuscationLevels(ug *UncertainGraph, originalDegrees []int) []float64 {
	return adversary.ObfuscationLevels(
		adversary.UncertainModel{G: ug}, originalDegrees)
}

// NewRand returns a reproducible random source for the primitives that
// draw many values from one stream: the graph generators, SampleWorld
// and the perturbation baselines. The context-first entry points take
// WithSeed instead.
func NewRand(seed int64) *rand.Rand { return randx.New(seed) }
