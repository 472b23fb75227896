// Package baseline implements the random-perturbation methods the paper
// compares against in Section 7.3 (following Hay et al. and Bonchi et
// al. [4]), together with their adversary models under the same entropy
// measure of identity obfuscation:
//
//   - random sparsification: each edge is deleted independently with
//     probability p;
//   - random perturbation: each edge is deleted with probability p, and
//     each non-edge is added with probability p|E|/(C(n,2)-|E|), keeping
//     the expected edge count unchanged.
//
// Both publish a *certain* graph. The adversary, knowing the mechanism
// and p, computes X_u(ω) = Pr(published degree of u | original degree
// ω) from the degree-transition law of the mechanism (Binomial thinning,
// plus Binomial additions for perturbation); normalizing columns and
// taking entropies is then exactly the machinery of package adversary,
// which is how Figure 4 matches a perturbation p to an obfuscation
// (k, ε).
package baseline

import (
	"math/rand"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// Sparsify publishes g with each edge independently removed with
// probability p.
func Sparsify(g *graph.Graph, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int) {
		if rng.Float64() >= p {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// AddProbability returns the non-edge addition probability of random
// perturbation, p*|E| / (C(n,2) - |E|), which keeps the expected number
// of edges equal to |E|.
func AddProbability(g *graph.Graph, p float64) float64 {
	n := g.NumVertices()
	nonEdges := float64(n)*float64(n-1)/2 - float64(g.NumEdges())
	if nonEdges <= 0 {
		return 0
	}
	return p * float64(g.NumEdges()) / nonEdges
}

// Perturb publishes g with each edge removed with probability p and
// each non-edge added with probability AddProbability(g, p). Non-edge
// enumeration uses geometric skipping over the C(n,2) pairs
// (randx.EachPair), so it draws once per visited pair rather than once
// per pair.
func Perturb(g *graph.Graph, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int) {
		if rng.Float64() >= p {
			b.AddEdge(u, v)
		}
	})
	// Visit each pair with probability AddProbability(g, p); pairs that
	// are original edges are skipped, so every non-edge is added
	// independently with exactly that probability.
	randx.EachPair(rng, g.NumVertices(), AddProbability(g, p), func(u, v int) {
		if !g.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}
