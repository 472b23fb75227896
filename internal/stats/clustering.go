package stats

import "uncertaingraph/internal/graph"

// Triangles counts triangles against reusable scratch: the
// possible-world pipeline holds one per worker and reuses it for every
// world, so once its buffers have grown to the graph's size a count
// allocates nothing. The zero value is ready to use; a Triangles
// serves one goroutine at a time.
type Triangles struct {
	start []int32 // counting-sort cursors, one per degree
	rank  []int32
	foff  []int64
	fnbr  []int32
	mark  []int32
}

// Count returns T3: the number of 3-cliques. It uses the forward
// (degree-ordered) algorithm, O(m^{3/2}) time, over a flat CSR of
// forward adjacencies.
func (t *Triangles) Count(g *graph.Graph) int64 {
	n := g.NumVertices()
	// Rank vertices by (degree, id) with a counting sort on degree:
	// visiting ids in order within each degree keeps ties by id. Each
	// edge is oriented from its lower-rank to its higher-rank end, so
	// every triangle is counted exactly once, at its lowest-rank
	// corner.
	start := resize(t.start, g.MaxDegree()+1)
	clear(start)
	for v := 0; v < n; v++ {
		start[g.Degree(v)]++
	}
	var next int32
	for d, c := range start {
		start[d] = next
		next += c
	}
	rank := resize(t.rank, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		rank[v] = start[d]
		start[d]++
	}
	// Forward adjacency in CSR form: foff[v]..foff[v+1] indexes v's
	// higher-rank neighbours within fnbr.
	foff := resize(t.foff, n+1)
	foff[0] = 0
	for v := 0; v < n; v++ {
		k := foff[v]
		for _, u := range g.Neighbors(v) {
			if rank[u] > rank[v] {
				k++
			}
		}
		foff[v+1] = k
	}
	fnbr := resize(t.fnbr, int(foff[n]))
	for v := 0; v < n; v++ {
		k := foff[v]
		for _, u := range g.Neighbors(v) {
			if rank[u] > rank[v] {
				fnbr[k] = u
				k++
			}
		}
	}
	// For each v, mark its forward neighbours with a stamp unique to
	// v; each marked forward neighbour w of a forward neighbour u
	// closes the triangle {v, u, w}.
	mark := resize(t.mark, n)
	clear(mark)
	t.start, t.rank, t.foff, t.fnbr, t.mark = start, rank, foff, fnbr, mark
	var t3 int64
	for v := 0; v < n; v++ {
		a := fnbr[foff[v]:foff[v+1]]
		if len(a) < 2 {
			continue
		}
		stamp := int32(v + 1)
		for _, u := range a {
			mark[u] = stamp
		}
		for _, u := range a {
			for _, w := range fnbr[foff[u]:foff[u+1]] {
				if mark[w] == stamp {
					t3++
				}
			}
		}
	}
	return t3
}

// ClusteringCoefficient returns S_CC = T3/T2 (paper §6.4), or 0 when
// the graph has no connected triples.
func (t *Triangles) ClusteringCoefficient(g *graph.Graph) float64 {
	t3 := t.Count(g)
	t2 := ConnectedTriplesGiven(g, t3)
	if t2 == 0 {
		return 0
	}
	return float64(t3) / float64(t2)
}

// resize returns s with length n, reallocated only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CountTriangles returns T3 on fresh scratch (see Triangles.Count).
func CountTriangles(g *graph.Graph) int64 {
	var t Triangles
	return t.Count(g)
}

// ConnectedTriples returns T2 under the paper's definition: the number
// of vertex triples inducing at least two edges (a path or a triangle,
// each counted once). Σ_v C(d_v, 2) counts each open triple once and
// each triangle three times, so T2 = Σ_v C(d_v, 2) - 2*T3; this makes
// S_CC[K3] = 1 as in paper Example 3.
func ConnectedTriples(g *graph.Graph) int64 {
	return ConnectedTriplesGiven(g, CountTriangles(g))
}

// ConnectedTriplesGiven is ConnectedTriples for callers that already
// know T3.
func ConnectedTriplesGiven(g *graph.Graph, t3 int64) int64 {
	var paths int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(v))
		paths += d * (d - 1) / 2
	}
	return paths - 2*t3
}

// ClusteringCoefficient returns S_CC = T3/T2 (paper §6.4), or 0 when
// the graph has no connected triples. It runs on fresh scratch (see
// Triangles).
func ClusteringCoefficient(g *graph.Graph) float64 {
	var t Triangles
	return t.ClusteringCoefficient(g)
}
