package query

import (
	"sync"

	"uncertaingraph/internal/uncertain"
)

// BatchPool is a concurrency-safe pool of Batches bound to one graph —
// the serving-layer reuse hook. A long-lived server keeps one BatchPool
// per published graph so steady-state requests reuse world samplers,
// packed walkers and integer accumulators instead of reallocating them,
// while the pool's Config template keeps every acquired batch inside
// the graph's memory budget (Get stamps MemoryBudget before Reset, so
// a pooled batch sheds high-water accumulators from a previous request
// right there and never retains more than the budget across requests).
type BatchPool struct {
	g    *uncertain.Graph
	cfg  Config
	pool sync.Pool
}

// NewBatchPool returns a pool of batches over g. cfg is the template
// stamped onto every batch Get returns; per-request fields (Worlds,
// Seed, Tolerance, Workers) are typically overwritten by the caller
// after Get.
func NewBatchPool(g *uncertain.Graph, cfg Config) *BatchPool {
	return &BatchPool{g: g, cfg: cfg}
}

// Graph returns the graph every pooled batch is bound to.
func (p *BatchPool) Graph() *uncertain.Graph { return p.g }

// Get returns a reset batch from the pool, or a fresh one when the
// pool is empty. The template's MemoryBudget is stamped before Reset
// so retained high-water accumulators above it are shed on the way
// out.
func (p *BatchPool) Get() *Batch {
	if b, ok := p.pool.Get().(*Batch); ok {
		b.MemoryBudget = p.cfg.MemoryBudget
		b.Reset()
		return b
	}
	return NewBatch(p.g, p.cfg)
}

// Put returns a batch to the pool for reuse. A batch bound to a
// different graph is dropped instead of pooled: handing it out later
// would answer this pool's requests from the wrong graph's structure,
// so the guard turns a caller bug into a missed reuse rather than
// cross-graph answer leakage.
func (p *BatchPool) Put(b *Batch) {
	if b == nil || b.Graph() != p.g {
		return
	}
	p.pool.Put(b)
}
