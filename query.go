package uncertaingraph

import (
	"math/rand"

	"uncertaingraph/internal/query"
)

// QueryEngine answers analytical queries over a published uncertain
// graph one query at a time. It is a documented shim over QueryBatch:
// every method registers a single query on a reusable batch and runs
// it without cancellation, deriving a fresh decorrelated world stream
// per call.
//
// Deprecated: use QueryBatch (NewQueryBatch + Run(ctx)) — it shares
// worlds and BFS trees across queries and supports request-scoped
// cancellation. QueryEngine remains for one release of compatibility.
type QueryEngine = query.Engine

// NewQueryEngine returns an engine over g sampling the given number of
// worlds (0 selects the Hoeffding default, 738 worlds for ±0.05 at 95%
// confidence on probability estimates). With a nil rng the engine
// derives a reproducible, decorrelated world stream per query from its
// Seed field; an explicit rng seeds each query by one Int63 draw.
//
// Deprecated: use NewQueryBatch. NewQueryEngine remains for one
// release of compatibility.
func NewQueryEngine(g *UncertainGraph, worlds int, rng *rand.Rand) *QueryEngine {
	return &query.Engine{G: g, Worlds: worlds, Rng: rng}
}

// QueryBatch evaluates many queries against one shared set of sampled
// worlds: each world is materialized once, one BFS runs per distinct
// query source per world, and the steady-state world loop performs
// zero heap allocations. This is the serving path behind cmd/queryd;
// results are bit-identical for every Workers value, and Run takes the
// request's context so a dropped client stops the work mid-flight.
type QueryBatch = query.Batch

// QueryConfig tunes a QueryBatch: Worlds (0 selects the Hoeffding
// default), Seed, Workers (<= 0 selects GOMAXPROCS), MemoryBudget
// (0 disables the budget) and Progress.
type QueryConfig = query.Config

// ErrOverBudget is returned by QueryBatch.Run when the registered
// queries' worst-case accumulator footprint exceeds the batch's
// WithMemoryBudget bound. The returned error carries the exact need
// and budget in bytes; test with errors.Is.
var ErrOverBudget = query.ErrOverBudget

// QueryNeighbor is one ranked k-NN result: a vertex and its count-rule
// median distance from the query source.
type QueryNeighbor = query.Neighbor

// NewQueryBatch returns an empty batch of queries over g, configured by
// the shared options (WithWorlds, WithSeed, WithWorkers, WithProgress)
// plus the query-only WithMemoryBudget.
// Register queries with AddReliability/AddDistance/AddKNearest, call
// Run(ctx), then read results by query id; Reset reuses every buffer
// for the next request.
//
//	b, err := uncertaingraph.NewQueryBatch(g,
//	    uncertaingraph.WithWorlds(1000), uncertaingraph.WithSeed(7))
//	rel := b.AddReliability(0, 5)
//	if err := b.Run(ctx); err != nil { ... }
//	p := b.Reliability(rel)
//
// Option validation failures return an error wrapping ErrBadConfig.
func NewQueryBatch(g *UncertainGraph, opts ...Option) (*QueryBatch, error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	return query.NewBatch(g, s.queryConfig()), nil
}
