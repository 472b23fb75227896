package uncertain

import (
	"math/rand"
	"sort"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// Sampler materializes possible worlds of one uncertain graph into
// preallocated CSR buffers: after construction, every Sample and
// SampleSeed call performs zero heap allocations. It is the world
// engine behind every possible-world Monte Carlo estimate (paper
// Section 6.1): statistics on r ≈ 100 worlds per published graph, and
// every query answered on a release — the hot path that dominates
// evaluation and serving cost.
//
// The trick is a sampling template built once per Sampler: for every
// vertex, the incident candidate pairs sorted by the opposite
// endpoint. A world is then materialized in two passes — (1) draw each
// candidate pair in candidate-list order, exactly the RNG draw order
// of Graph.SampleWorld, recording presence in a bitmap; (2) walk the
// template and pack the present neighbors into the world's flat
// adjacency array, branch-free, which lands sorted without any
// per-world sort. Sample and SampleSeed differ only in where pass (1)
// draws its coins: any *rand.Rand, or the sampler's own randx.Source.
//
// The returned *graph.Graph is reused: it remains valid only until the
// next Sample or SampleSeed call on the same Sampler. A Sampler is not
// safe for concurrent use; parallel pipelines hold one Sampler per
// worker.
type Sampler struct {
	g *Graph

	// Template: per-vertex incident slots sorted by opposite endpoint.
	toff  []int64 // length n+1
	tnbr  []int32 // opposite endpoint of the slot's pair
	tpair []int32 // index of the slot's pair

	// Per-world buffers.
	present []bool
	offsets []int64
	nbr     []int32
	world   graph.Graph
	src     randx.Source // SampleSeed's generator, reseeded per world
}

// NewSampler builds the sampling template for g. Cost is one sort of
// the incident lists, O(Σ_v inc(v) log inc(v)); every subsequent
// Sample or SampleSeed is O(|E_C|) with no allocations.
func (g *Graph) NewSampler() *Sampler {
	s := &Sampler{
		g:       g,
		toff:    g.incOff,
		tnbr:    make([]int32, len(g.incIdx)),
		tpair:   make([]int32, len(g.incIdx)),
		present: make([]bool, len(g.pairP)),
		offsets: make([]int64, g.n+1),
		nbr:     make([]int32, len(g.incIdx)),
	}
	for v := 0; v < g.n; v++ {
		lo, hi := s.toff[v], s.toff[v+1]
		for k := lo; k < hi; k++ {
			idx := g.incIdx[k]
			other := g.pairU[idx]
			if int(other) == v {
				other = g.pairV[idx]
			}
			s.tnbr[k] = other
			s.tpair[k] = idx
		}
		sort.Sort(templateSlots{nbr: s.tnbr[lo:hi], pair: s.tpair[lo:hi]})
	}
	return s
}

// templateSlots co-sorts one vertex's (neighbor, pair-index) slots by
// neighbor id; endpoints are distinct within a vertex, so the order is
// total.
type templateSlots struct {
	nbr  []int32
	pair []int32
}

func (t templateSlots) Len() int           { return len(t.nbr) }
func (t templateSlots) Less(i, j int) bool { return t.nbr[i] < t.nbr[j] }
func (t templateSlots) Swap(i, j int) {
	t.nbr[i], t.nbr[j] = t.nbr[j], t.nbr[i]
	t.pair[i], t.pair[j] = t.pair[j], t.pair[i]
}

// Sample draws one possible world W ~ Pr(W) into the sampler's
// buffers. The RNG draw sequence is identical to Graph.SampleWorld's —
// one Float64 per candidate pair with 0 < p < 1, in candidate-list
// order — so for equal RNG states the two produce equal worlds, pinned
// by TestSamplerMatchesSampleWorld. The returned graph aliases the
// sampler and is valid until the next Sample or SampleSeed call.
//
// Sample is the reference path for any *rand.Rand; the world loop
// samples through SampleSeed, which draws the same coins without
// dispatching through rand.Source.
func (s *Sampler) Sample(rng *rand.Rand) *graph.Graph {
	present := s.present
	m := 0
	for i, p := range s.g.pairP {
		on := p > 0 && (p >= 1 || rng.Float64() < p)
		present[i] = on
		if on {
			m++
		}
	}
	return s.materialize(m)
}

// SampleSeed draws the world Sample(randx.New(seed)) draws, from the
// sampler's own randx.Source: the same coins in the same order, each a
// static call instead of an interface dispatch, after a table-driven
// reseed. The world loop calls it once per world with that world's
// pre-derived seed. The returned graph aliases the sampler and is
// valid until the next Sample or SampleSeed call.
func (s *Sampler) SampleSeed(seed int64) *graph.Graph {
	src := &s.src
	src.Seed(seed)
	present := s.present
	m := 0
	for i, p := range s.g.pairP {
		on := p > 0 && (p >= 1 || src.Float64() < p)
		present[i] = on
		if on {
			m++
		}
	}
	return s.materialize(m)
}

// materialize walks the template and packs the present pairs' opposite
// endpoints into the world's CSR arrays. The pass is branch-free: every
// slot's neighbor is stored at pos, and pos advances only when the
// slot's pair is present (a conditional move, not a jump), so the next
// store overwrites an absent one. nbr[:pos] ends up exactly as a
// store-if-present loop leaves it, and pos <= k keeps every store
// inside nbr.
func (s *Sampler) materialize(m int) *graph.Graph {
	present, toff, tnbr, tpair := s.present, s.toff, s.tnbr, s.tpair
	nbr, offsets := s.nbr, s.offsets
	var pos int64
	lo := toff[0]
	for v := 1; v < len(toff); v++ {
		hi := toff[v]
		for k := lo; k < hi; k++ {
			nbr[pos] = tnbr[k]
			if present[tpair[k]] {
				pos++
			}
		}
		offsets[v] = pos
		lo = hi
	}
	s.world.ResetCSR(offsets, nbr[:pos], m)
	return &s.world
}

// Graph returns the uncertain graph this sampler draws from.
func (s *Sampler) Graph() *Graph { return s.g }

// Clone returns a sampler that shares the receiver's immutable
// sampling template but owns fresh per-world buffers, so it samples
// exactly the same worlds from equal RNG states or seeds while being
// safe to drive from another goroutine. Parallel engines build one
// template (the O(Σ inc(v) log inc(v)) sort) and clone it per worker
// instead of re-sorting per worker.
func (s *Sampler) Clone() *Sampler {
	return &Sampler{
		g:       s.g,
		toff:    s.toff,
		tnbr:    s.tnbr,
		tpair:   s.tpair,
		present: make([]bool, len(s.present)),
		offsets: make([]int64, len(s.offsets)),
		nbr:     make([]int32, len(s.nbr)),
	}
}
