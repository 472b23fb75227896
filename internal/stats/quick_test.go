package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
)

func randomGraph(seed int64, maxN int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(maxN-2)
	return gen.ErdosRenyiGNP(rng, n, 0.05+0.3*rng.Float64())
}

// Property: the degree-ordered triangle counter agrees with brute force
// on arbitrary random graphs, both on fresh scratch and on one
// Triangles reused across graphs of every size, so stale ranks, lists
// and marks from a larger graph sit in its buffers.
func TestQuickTrianglesMatchBruteForce(t *testing.T) {
	var reused Triangles
	f := func(seed int64) bool {
		g := randomGraph(seed, 40)
		var want int64
		n := g.NumVertices()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if !g.HasEdge(a, b) {
					continue
				}
				for c := b + 1; c < n; c++ {
					if g.HasEdge(a, c) && g.HasEdge(b, c) {
						want++
					}
				}
			}
		}
		return CountTriangles(g) == want && reused.Count(g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: 0 <= S_CC <= 1 and T2 >= 0 under the paper's definition.
func TestQuickClusteringCoefficientBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 50)
		t3 := CountTriangles(g)
		t2 := ConnectedTriplesGiven(g, t3)
		if t2 < 0 || t3 < 0 || t3 > t2 && t2 > 0 {
			return false
		}
		cc := ClusteringCoefficient(g)
		return cc >= 0 && cc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: degree variance is non-negative and zero exactly for
// regular graphs.
func TestQuickDegreeVariance(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40)
		dv := DegreeVariance(g)
		if dv < 0 {
			return false
		}
		regular := true
		d0 := g.Degree(0)
		for v := 1; v < g.NumVertices(); v++ {
			if g.Degree(v) != d0 {
				regular = false
				break
			}
		}
		if regular {
			return dv < 1e-9
		}
		return dv > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: distance-distribution invariants hold for any graph:
// counts plus disconnected equals C(n,2); Diameter bounds EffectiveDiameter.
func TestQuickDistanceDistributionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40)
		// Use the exact oracle via bfs would import-cycle here; derive
		// the distribution manually from per-source BFS.
		n := g.NumVertices()
		counts := []float64{0}
		var reach float64
		for s := 0; s < n; s++ {
			dist := bfsFrom(g, s)
			for v, d := range dist {
				if v == s || d < 0 {
					continue
				}
				for d >= len(counts) {
					counts = append(counts, 0)
				}
				counts[d] += 0.5 // each unordered pair seen twice
				reach += 0.5
			}
		}
		dd := DistanceDistribution{
			Counts:       counts,
			Disconnected: float64(n*(n-1))/2 - reach,
		}
		if dd.Disconnected < -1e-9 {
			return false
		}
		if dd.TotalPairs() < float64(n*(n-1))/2-1e-6 ||
			dd.TotalPairs() > float64(n*(n-1))/2+1e-6 {
			return false
		}
		return dd.EffectiveDiameter(0.9) <= float64(dd.Diameter())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func bfsFrom(g *graph.Graph, s int) []int {
	n := g.NumVertices()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
