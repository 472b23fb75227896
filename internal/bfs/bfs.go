// Package bfs computes exact shortest-path distance distributions by
// breadth-first search. It is the validation oracle for the HyperANF
// estimator (internal/anf) and the exact path for the small and
// mid-sized graphs used in tests, examples and scaled-down experiments.
//
// Every walk is the sequential queue BFS. A Scratch runs it against
// reusable dist/queue/count buffers — the shape a per-world scan
// wants, where each worker lane owns one Scratch across its whole run
// and parallelism lives across worlds, never inside one walk. (The
// query engine walks packed groups of worlds instead; see
// internal/query.) The one fan-out here is across sources: a distance-distribution
// scan deals its sources out to workers (scanSources). Its counts are
// exact small integers, so summation order cannot perturb them and
// every worker count gives a bit-identical distribution.
package bfs

import (
	"math/rand"
	"runtime"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/stats"
)

// sourceChunk is the fixed number of sources one scanSources work
// item covers; chunk boundaries depend only on the source count.
const sourceChunk = 512

// FromSource returns the distances from src to every vertex (-1 for
// unreachable vertices). It is a convenience wrapper over the single
// traversal core (Scratch.FromSourceInto) that widens the result to
// []int; allocation-sensitive callers use a Scratch directly.
func FromSource(g *graph.Graph, src int) []int {
	d32 := NewScratch().FromSourceInto(g, src)
	dist := make([]int, len(d32))
	for i, d := range d32 {
		dist[i] = int(d)
	}
	return dist
}

// Scratch holds the per-worker BFS state — distance array, frontier
// queue and distance-count accumulator — so repeated distribution
// computations (one per sampled possible world) allocate nothing once
// the buffers have grown to the graph size.
type Scratch struct {
	dist   []int32
	queue  []int32
	counts []float64
	// mark flags the unresolved targets of a FromSourceTargetsInto
	// walk. It is all-false between calls: each call marks exactly its
	// targets and unmarks them before returning, so no O(n) clear is
	// ever needed.
	mark []bool

	// pool holds the extra per-worker scratches scanSources spins up
	// when a distance-distribution scan runs with workers > 1; worker 0
	// always uses s itself, so the sequential path touches no pool.
	pool []*Scratch
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) ensure(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	s.dist = s.dist[:n]
}

// FromSourceInto computes the distances from src to every vertex (-1
// for unreachable vertices) into the scratch's distance buffer and
// returns it. The slice aliases the scratch and is valid only until
// the next call on s; once the buffers have grown to the graph size,
// repeated calls allocate nothing. It is the single-source walk on a
// materialized world: the per-world reference the query engine's
// packed walk is tested against, and the exact oracle's walk.
func (s *Scratch) FromSourceInto(g *graph.Graph, src int) []int32 {
	s.ensure(g.NumVertices())
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(s.queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue[:0]
	return dist
}

// FromSourceTargetsInto is FromSourceInto restricted to a target set:
// the walk stops as soon as every vertex in targets has been assigned
// its distance, so queries over close targets cost a frontier
// expansion instead of a whole-component scan. Only the entries for
// src and the targets are meaningful in the returned slice; any other
// vertex holds -1 or its true distance depending on where the walk
// stopped. The target entries are bit-identical to a full
// FromSourceInto walk — BFS assigns final distances at discovery, so
// stopping after the last target is discovered cannot change them, and
// a target still -1 when the frontier exhausts is genuinely
// unreachable. Duplicate targets and targets equal to src are allowed.
// The slice aliases the scratch and is valid only until the next call
// on s; warm calls allocate nothing.
func (s *Scratch) FromSourceTargetsInto(g *graph.Graph, src int, targets []int32) []int32 {
	n := g.NumVertices()
	s.ensure(n)
	if cap(s.mark) < n {
		s.mark = make([]bool, n)
	}
	mark := s.mark[:n]
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	remaining := 0
	for _, t := range targets {
		if int(t) != src && !mark[t] {
			mark[t] = true
			remaining++
		}
	}
	queue := append(s.queue[:0], int32(src))
scan:
	for head := 0; head < len(queue) && remaining > 0; head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du
				queue = append(queue, v)
				if mark[v] {
					if remaining--; remaining == 0 {
						break scan
					}
				}
			}
		}
	}
	for _, t := range targets {
		mark[t] = false
	}
	s.queue = queue[:0]
	return dist
}

// run accumulates the ordered distance counts of a BFS from src into
// s.counts and returns the number of vertices reached (excluding src).
func (s *Scratch) run(g *graph.Graph, src int) float64 {
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(s.queue[:0], int32(src))
	var reach float64
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du
				queue = append(queue, v)
				for int(du) >= len(s.counts) {
					s.counts = append(s.counts, 0)
				}
				s.counts[du]++
				reach++
			}
		}
	}
	s.queue = queue[:0]
	return reach
}

// reset prepares the count accumulator for a fresh distribution.
func (s *Scratch) reset() {
	s.counts = append(s.counts[:0], 0)
}

// scanSources runs BFS from nsrc sources (sources nil means vertices
// 0..nsrc-1) and accumulates ordered distance counts into s.counts,
// returning the number of ordered reachable pairs. workers <= 0 means
// GOMAXPROCS. With workers > 1 the sources are dealt out in fixed 512-wide chunks to per-worker
// scratches (worker 0 reuses s; the rest come from s.pool, grown once
// and kept warm) and the per-worker counts are merged afterwards.
// Chunk boundaries depend only on nsrc, every count is an exact small
// integer, and the merge is order-insensitive — so the result is
// bit-identical to the sequential scan for every worker count.
func (s *Scratch) scanSources(g *graph.Graph, sources []int32, nsrc, workers int) float64 {
	s.ensure(g.NumVertices())
	s.reset()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, nsrc))
	srcAt := func(i int) int {
		if sources == nil {
			return i
		}
		return int(sources[i])
	}
	if workers == 1 {
		var reach float64
		for i := 0; i < nsrc; i++ {
			reach += s.run(g, srcAt(i))
		}
		return reach
	}
	for len(s.pool) < workers-1 {
		s.pool = append(s.pool, NewScratch())
	}
	nchunks := (nsrc + sourceChunk - 1) / sourceChunk
	reach := make([]float64, workers)
	prepared := make([]bool, workers)
	parallel.For(nchunks, workers, nil, func(w, c int) {
		sc := s
		if w > 0 {
			sc = s.pool[w-1]
		}
		if !prepared[w] {
			sc.ensure(g.NumVertices())
			sc.reset()
			prepared[w] = true
		}
		lo, hi := c*sourceChunk, (c+1)*sourceChunk
		if hi > nsrc {
			hi = nsrc
		}
		for i := lo; i < hi; i++ {
			reach[w] += sc.run(g, srcAt(i))
		}
	})
	// For has joined its goroutines, so the merge below is
	// ordered after every worker's accumulation.
	total := reach[0] // worker 0's counts are already in s.counts
	for w := 1; w < workers; w++ {
		if !prepared[w] {
			continue
		}
		sub := s.pool[w-1]
		for d, c := range sub.counts {
			for d >= len(s.counts) {
				s.counts = append(s.counts, 0)
			}
			s.counts[d] += c
		}
		total += reach[w]
	}
	return total
}

// DistanceDistribution computes the exact pairwise distance
// distribution, reusing s's buffers, with the source scan spread over
// up to `workers` goroutines (<= 0 means GOMAXPROCS, 1 is fully
// sequential). The result is bit-identical for every worker count; see
// scanSources. The returned Counts alias the scratch and are valid
// only until the next call on s.
func (s *Scratch) DistanceDistribution(g *graph.Graph, workers int) stats.DistanceDistribution {
	n := g.NumVertices()
	reachable := s.scanSources(g, nil, n, workers)
	// Ordered counts halve to unordered; every pair was seen twice.
	for i := range s.counts {
		s.counts[i] /= 2
	}
	totalPairs := float64(n) * float64(n-1) / 2
	return stats.DistanceDistribution{
		Counts:       s.counts,
		Disconnected: totalPairs - reachable/2,
	}
}

// SampledDistanceDistribution estimates the distance distribution from
// BFS trees of `samples` uniformly chosen sources (the sampling
// approach of Lipton–Naughton cited in §6.3), scaling ordered counts by
// n/samples; with samples >= n it falls back to the exact computation.
// The source scan runs on up to `workers` goroutines (as in
// DistanceDistribution). The rng draws happen up front on the calling
// goroutine, so the sampled sources — and with them the result — are
// bit-identical for every worker count. The returned Counts alias the
// scratch.
func (s *Scratch) SampledDistanceDistribution(g *graph.Graph, samples int, rng *rand.Rand, workers int) stats.DistanceDistribution {
	n := g.NumVertices()
	if samples >= n {
		return s.DistanceDistribution(g, workers)
	}
	srcs := sampleSources(rng, n, samples)
	reachable := s.scanSources(g, srcs, samples, workers)
	scale := float64(n) / float64(samples) / 2
	for i := range s.counts {
		s.counts[i] *= scale
	}
	totalPairs := float64(n) * float64(n-1) / 2
	disconnected := totalPairs - reachable*scale
	if disconnected < 0 {
		disconnected = 0
	}
	return stats.DistanceDistribution{Counts: s.counts, Disconnected: disconnected}
}

// sampleSources draws `samples` distinct vertices of [0, n) uniformly
// without replacement: a partial Fisher–Yates shuffle over a sparse
// displacement map, costing exactly `samples` rng.Intn draws and
// O(samples) memory instead of the n draws and n ints the historical
// rng.Perm(n)[:samples] cost. The RNG stream therefore differs from
// the pre-PR-7 code (fewer draws, different order) — a seed-visible
// change, pinned once by TestSampleSourcesDrawOrder and absorbed by
// the re-pinned DistanceSampledBFS regression values in
// internal/sampling.
func sampleSources(rng *rand.Rand, n, samples int) []int32 {
	out := make([]int32, 0, samples)
	disp := make(map[int]int, samples)
	for i := 0; i < samples; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := disp[j]
		if !ok {
			vj = j
		}
		out = append(out, int32(vj))
		if j > i {
			vi, ok := disp[i]
			if !ok {
				vi = i
			}
			disp[j] = vi
			delete(disp, i)
		}
	}
	return out
}

// DistanceDistribution returns the exact distribution of pairwise
// distances by running a BFS from every vertex (O(n*m) time), counting
// each unordered pair once. Sources are processed on GOMAXPROCS
// goroutines; Scratch.DistanceDistribution takes an explicit budget.
func DistanceDistribution(g *graph.Graph) stats.DistanceDistribution {
	return NewScratch().DistanceDistribution(g, 0)
}
