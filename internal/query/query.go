// Package query answers analytical queries on published uncertain
// graphs, the consumption side of the paper's proposal: Section 1
// argues an uncertain publication is useful precisely because the
// uncertain-graph literature (reliability, k-nearest-neighbours,
// shortest paths — Potamias et al., Jin et al., cited in §1 and §6)
// can run on it directly.
//
// All queries are possible-world Monte Carlo with Hoeffding-bounded
// sample sizes (paper Lemma 2 / Corollary 1): indicators and bounded
// statistics concentrate after r = ln(2/δ)/(2ε²) worlds.
//
// Two entry styles are provided. The Batch engine is the serving path:
// it samples each world once and evaluates many queries against it,
// sharing one BFS per distinct source per world, with zero heap
// allocations in the steady-state world loop. The Engine methods are
// the one-shot convenience layer; each call runs a single-query batch
// on its own derived world stream.
//
// Every median in this package — MedianDistance and the k-NN ranking
// alike — uses the same count-based rule: the smallest distance whose
// cumulative world count reaches ceil(r/2), with the disconnection
// bucket (+infinity) sorted last. The rule is exact integer
// arithmetic, so it cannot drift from float accumulation the way a
// "cumulative probability >= 0.5" walk does.
package query

import (
	"context"
	"math/rand"

	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// Engine runs world-sampling queries over one uncertain graph: the
// one-query-at-a-time layer on top of Batch. It is a documented shim —
// every method registers a single query on the engine's reusable Batch
// and runs it without cancellation; new code should drive a Batch
// directly (register queries, Run(ctx), read results) and gain
// request-scoped cancellation plus one-BFS-per-source sharing across
// queries.
//
// Deprecated: use Batch. Engine remains for one release of
// compatibility.
type Engine struct {
	G *uncertain.Graph
	// Worlds is the Monte-Carlo sample size (0 selects the Hoeffding
	// size for ±0.05 at 95% confidence on indicator statistics, 738).
	Worlds int
	// Rng, when non-nil, seeds each query's world stream by one Int63
	// draw per call, so a run is replayable from the generator's
	// initial state.
	Rng *rand.Rand
	// Seed is the base seed used when Rng is nil: the i-th query on
	// the engine samples the stream randx.Derive(Seed, i), so
	// successive queries are reproducible yet decorrelated instead of
	// replaying identical worlds.
	Seed int64
	// Workers bounds concurrent world evaluations per query (<= 0
	// selects GOMAXPROCS); results are identical for every value.
	Workers int

	// calls counts queries served, indexing the derived streams.
	calls uint64
	// batch is the reusable single-query batch: world buffers, BFS
	// scratch and accumulators persist across calls, so steady-state
	// scalar queries allocate nothing. Rebuilt if the caller re-points
	// G at a different graph.
	batch *Batch
}

// prepareBatch readies the engine's reusable batch for one fresh query
// with the next derived world stream.
func (e *Engine) prepareBatch() *Batch {
	if e.batch == nil || e.batch.g != e.G {
		e.batch = NewBatch(e.G, Config{})
	}
	b := e.batch
	b.Reset()
	b.Worlds = e.worlds()
	b.Workers = e.Workers
	b.Seed = e.nextSeed()
	return b
}

// run executes the prepared batch without cancellation; the engine's
// batch carries no MemoryBudget, so Run cannot fail.
func (e *Engine) run() { _ = e.batch.Run(context.Background()) }

// nextSeed returns the world-stream seed for the next query: one Int63
// draw from the explicit Rng when set, otherwise the call-indexed
// derivation from the fixed engine seed.
func (e *Engine) nextSeed() int64 {
	if e.Rng != nil {
		return e.Rng.Int63()
	}
	seed := randx.Derive(e.Seed, e.calls)
	e.calls++
	return seed
}

func (e *Engine) worlds() int {
	if e.Worlds > 0 {
		return e.Worlds
	}
	return DefaultWorlds()
}

// Reliability estimates the two-terminal reliability Pr(s ~ t): the
// probability that s and t are connected in a possible world.
func (e *Engine) Reliability(s, t int) float64 {
	b := e.prepareBatch()
	id := b.AddReliability(s, t)
	e.run()
	return b.Reliability(id)
}

// DistanceDistribution estimates the distribution of dist(s, t) over
// possible worlds: dist[d] = Pr(dist(s,t) = d), plus the probability of
// disconnection. This is the primitive behind the median-distance and
// majority-distance semantics used for k-NN on uncertain graphs.
func (e *Engine) DistanceDistribution(s, t int) (dist map[int]float64, disconnected float64) {
	b := e.prepareBatch()
	id := b.AddDistance(s, t)
	e.run()
	return b.DistanceDistribution(id)
}

// MedianDistance returns the median of dist(s, t) over possible worlds,
// with disconnection treated as +infinity (returned as -1 when the
// median itself is a disconnection) — the robust distance of Potamias
// et al. The median follows the count rule shared with KNearest (see
// the package comment), not a float-mass walk.
func (e *Engine) MedianDistance(s, t int) int {
	b := e.prepareBatch()
	id := b.AddDistance(s, t)
	e.run()
	return b.MedianDistance(id)
}

// ExpectedDegree returns E[deg(v)], exact (sum of incident
// probabilities).
func (e *Engine) ExpectedDegree(v int) float64 { return e.G.ExpectedDegree(v) }

// KNearest returns the k vertices with the smallest median distance to
// s (excluding s), breaking ties by vertex id — median-distance k-NN
// over the uncertain graph. The implementation samples worlds once and
// reuses the per-world BFS trees for all candidates.
func (e *Engine) KNearest(s, k int) []int {
	b := e.prepareBatch()
	id := b.AddKNearest(s, k)
	e.run()
	return b.KNearest(id)
}
