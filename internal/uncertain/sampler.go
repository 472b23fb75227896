package uncertain

import (
	"math/rand"

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
// per-world sort. Sample and SampleSeed differ only in how pass (1)
// draws its coins. Sample calls Float64 on any *rand.Rand once per
// pair. SampleSeed draws from the sampler's own randx.Source in
// straight runs of the generator (randx.Source.Coins), comparing each
// draw with the pair's integer coin threshold, which the template
// holds: the same coins, without a call per pair.
//
// One coin pass has two outputs. Sample and SampleSeed materialize the
// world as a CSR graph, the form the statistics pipeline measures;
// SampleGroup instead packs up to 64 consecutive worlds into one
// presence mask per candidate pair (see PackedWorlds), the form the
// query engine walks. The world loop (internal/worldloop) hands each
// scan a group's seeds and its lane's Sampler, and the scan picks the
// output. Each output's buffers are allocated on first use, so a
// sampler that only packs holds no CSR buffers and one that only
// materializes holds no masks.
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

	// Coin table: th[i] is pair i's randx.CoinThreshold, and runs are
	// the maximal runs of consecutive pairs that draw a coin
	// (0 < p < 1), in candidate-list order.
	th   []uint64
	runs []coinRun

	// Per-world buffers. present holds every pair that draws no coin
	// from its allocation on, and is padded with false entries to a
	// whole number of 64-pair words, the unit SampleGroup packs.
	present []bool
	offsets []int64 // CSR buffers, allocated by the first materialize
	nbr     []int32
	world   graph.Graph
	src     randx.Source // SampleSeed's generator, reseeded per world

	// SampleGroup's output, allocated by its first call.
	packed PackedWorlds
}

// coinRun is the pair range [lo, hi) of one run of coin-drawing pairs.
type coinRun struct{ lo, hi int }

// NewSampler builds the sampling template for g in O(n + |E_C|): a
// counting sort of the incident slots by opposite endpoint, and one
// coin threshold per pair. Every subsequent Sample or SampleSeed is
// O(|E_C|) with no allocations.
func (g *Graph) NewSampler() *Sampler {
	s := &Sampler{
		g:     g,
		toff:  g.incOff,
		tnbr:  make([]int32, len(g.incIdx)),
		tpair: make([]int32, len(g.incIdx)),
		th:    make([]uint64, len(g.pairP)),
	}
	// Hand every pair of u, for u in increasing order, to the slot list
	// of its other endpoint: each list fills sorted by opposite
	// endpoint, which is distinct within a list.
	next := make([]int64, g.n)
	copy(next, g.incOff)
	for u := 0; u < g.n; u++ {
		for _, idx := range g.incIdx[g.incOff[u]:g.incOff[u+1]] {
			v := g.pairU[idx]
			if int(v) == u {
				v = g.pairV[idx]
			}
			k := next[v]
			next[v]++
			s.tnbr[k], s.tpair[k] = int32(u), idx
		}
	}
	for i, p := range g.pairP {
		if p <= 0 || p >= 1 {
			continue // certain or impossible: no coin, no draw
		}
		s.th[i] = randx.CoinThreshold(p)
		if last := len(s.runs) - 1; last >= 0 && s.runs[last].hi == i {
			s.runs[last].hi++
		} else {
			s.runs = append(s.runs, coinRun{i, i + 1})
		}
	}
	s.present = newPresent(g.pairP)
	return s
}

// Sample draws one possible world W ~ Pr(W) into the sampler's
// buffers. The RNG draw sequence is identical to Graph.SampleWorld's —
// one Float64 per candidate pair with 0 < p < 1, in candidate-list
// order — so for equal RNG states the two produce equal worlds, pinned
// by TestSamplerMatchesSampleWorld. The returned graph aliases the
// sampler and is valid until the next Sample or SampleSeed call.
//
// Sample is the reference path for any *rand.Rand; the world loop's
// scans sample through SampleSeed or SampleGroup, which draw the same
// coins in runs.
func (s *Sampler) Sample(rng *rand.Rand) *graph.Graph {
	present := s.present
	for i, p := range s.g.pairP {
		present[i] = p > 0 && (p >= 1 || rng.Float64() < p)
	}
	return s.materialize()
}

// SampleSeed draws the world Sample(randx.New(seed)) draws, from the
// sampler's own randx.Source: the same coins in the same order, after
// a table-driven reseed. The statistics pipeline calls it once per
// world with that world's pre-derived seed. The returned graph aliases
// the sampler and is valid until the next Sample or SampleSeed call.
func (s *Sampler) SampleSeed(seed int64) *graph.Graph {
	s.drawSeed(seed)
	return s.materialize()
}

// drawSeed is SampleSeed's coin pass: it reseeds the sampler's source
// and records every coin-drawing pair's presence in s.present, one
// randx.Source.Coins call per run of such pairs; the stream continues
// across runs as Float64's does across the pairs between them. In the
// rare world where one draw is one Float64 discards (about 2⁻⁵⁴ per
// coin), it reseeds and redraws the world with Float64 itself, which
// redraws as Sample does.
func (s *Sampler) drawSeed(seed int64) {
	src := &s.src
	src.Seed(seed)
	present := s.present
	redraw := false
	for _, r := range s.runs {
		if src.Coins(present[r.lo:r.hi], s.th[r.lo:r.hi]) {
			redraw = true
		}
	}
	if redraw {
		src.Seed(seed)
		for i, p := range s.g.pairP {
			present[i] = p > 0 && (p >= 1 || src.Float64() < p)
		}
	}
}

// materialize walks the template and packs the present pairs' opposite
// endpoints into the world's CSR arrays. The pass is branch-free: every
// slot's neighbor is stored at pos, and pos advances only when the
// slot's pair is present (a conditional move, not a jump), so the next
// store overwrites an absent one. nbr[:pos] ends up exactly as a
// store-if-present loop leaves it, and pos <= k keeps every store
// inside nbr. Every present pair fills two slots, one per endpoint, so
// the world has pos/2 edges.
func (s *Sampler) materialize() *graph.Graph {
	if s.nbr == nil {
		s.offsets = make([]int64, len(s.toff))
		s.nbr = make([]int32, len(s.tnbr))
	}
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
	s.world.ResetCSR(offsets, nbr[:pos], int(pos/2))
	return &s.world
}

// Graph returns the uncertain graph this sampler draws from.
func (s *Sampler) Graph() *Graph { return s.g }

// Clone returns a sampler that shares the receiver's immutable
// sampling template but owns fresh per-world buffers, so it samples
// exactly the same worlds from equal RNG states or seeds while being
// safe to drive from another goroutine. Parallel engines build one
// template (the slot sort and the coin thresholds) and clone it per
// worker instead of rebuilding it per worker.
func (s *Sampler) Clone() *Sampler {
	return &Sampler{
		g:       s.g,
		toff:    s.toff,
		tnbr:    s.tnbr,
		tpair:   s.tpair,
		th:      s.th,
		runs:    s.runs,
		present: newPresent(s.g.pairP),
	}
}
