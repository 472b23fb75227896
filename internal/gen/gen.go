// Package gen provides random-graph generators used to synthesize
// stand-ins for the paper's proprietary datasets (dblp, flickr, Y360)
// and workloads for tests and benchmarks.
//
// The generators cover the regimes the evaluation needs: Erdős–Rényi
// (homogeneous degrees), Barabási–Albert preferential attachment
// (heavy-tailed degrees, low clustering), Holme–Kim (heavy-tailed
// degrees with tunable clustering — the closest simple model to
// co-authorship and friendship networks), and Watts–Strogatz
// (small-world, high clustering).
package gen

import (
	"math/rand"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// ErdosRenyiGNM returns a uniform random simple graph with n vertices
// and exactly m edges (m is capped at n*(n-1)/2).
func ErdosRenyiGNM(rng *rand.Rand, n, m int) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	b := graph.NewBuilder(n)
	for b.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// ErdosRenyiGNP returns a G(n, p) graph: each of the n*(n-1)/2 pairs is
// an edge independently with probability p. It uses geometric skipping
// (randx.EachPair), so it draws once per edge rather than once per pair.
func ErdosRenyiGNP(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	randx.EachPair(rng, n, p, func(u, v int) { b.AddEdge(u, v) })
	return b.Build()
}

// BarabasiAlbert grows a preferential-attachment graph: it starts from a
// clique on m0 = m+1 vertices, then each new vertex attaches to m
// distinct existing vertices chosen proportionally to degree.
func BarabasiAlbert(rng *rand.Rand, n, m int) *graph.Graph {
	return HolmeKim(rng, n, m, 0)
}

// HolmeKim grows a Barabási–Albert graph with triad formation: after
// each preferential attachment step, with probability pt the next link
// of the new vertex closes a triangle with a random neighbor of the
// previously attached vertex instead of doing a fresh preferential step.
// pt = 0 reduces to pure Barabási–Albert (low clustering); larger pt
// raises the clustering coefficient while keeping the power-law degree
// tail — matching co-authorship-like graphs such as dblp.
func HolmeKim(rng *rand.Rand, n, m int, pt float64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	m0 := m + 1
	if n < m0 {
		m0 = n
	}
	b := graph.NewBuilder(n)
	// adj mirrors the builder for O(1) neighbor sampling during growth.
	adj := make([][]int, n)
	link := func(u, v int) bool {
		if !b.AddEdge(u, v) {
			return false
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return true
	}
	// repeated holds each vertex once per unit of degree; sampling a
	// uniform element is preferential attachment.
	repeated := make([]int, 0, 2*m*n)
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			link(u, v)
			repeated = append(repeated, u, v)
		}
	}
	for v := m0; v < n; v++ {
		added := 0
		last := -1
		// The new vertex can attach to at most v existing vertices.
		want := m
		if want > v {
			want = v
		}
		for added < want {
			target := -1
			if last >= 0 && pt > 0 && rng.Float64() < pt && len(adj[last]) > 0 {
				// Triad formation: connect to a random neighbor of the
				// last attached vertex, closing a triangle.
				target = adj[last][rng.Intn(len(adj[last]))]
			}
			if target < 0 {
				if len(repeated) == 0 {
					target = rng.Intn(v)
				} else {
					target = repeated[rng.Intn(len(repeated))]
				}
			}
			if target == v || !link(v, target) {
				// Already linked (or chose self); fall back to a fresh
				// preferential step next round.
				last = -1
				continue
			}
			repeated = append(repeated, v, target)
			last = target
			added++
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbors on each side, with each
// edge rewired to a uniform random endpoint with probability beta.
func WattsStrogatz(rng *rand.Rand, n, k int, beta float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire: keep u, choose a random non-adjacent target.
				for tries := 0; tries < 2*n; tries++ {
					w := rng.Intn(n)
					if w != u && !b.HasEdge(u, w) {
						v = w
						break
					}
				}
			}
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
