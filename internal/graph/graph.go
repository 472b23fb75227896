// Package graph provides the undirected-graph substrate: a compact
// immutable compressed-sparse-row (CSR) adjacency representation, an
// incremental builder, degree utilities, and edge-list IO. All higher
// layers (uncertain graphs, obfuscation, statistics) are built on this
// package.
//
// The CSR layout stores every adjacency list back to back in one flat
// int32 array, with a per-vertex offset table: Neighbors(v) is the
// subslice neighbors[offsets[v]:offsets[v+1]], sorted ascending. One
// graph is therefore two allocations regardless of vertex count, walks
// are sequential in memory, and buffer-reuse engines (see
// internal/uncertain.Sampler) can rematerialize a graph into the same
// arrays with zero allocations.
//
// Vertices are dense integers 0..N-1. Self-loops and parallel edges are
// rejected at construction, matching the paper's simple-graph model.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an unordered pair of distinct vertices, stored with U < V.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is an immutable simple undirected graph in CSR form: the
// neighbor lists of all vertices concatenated into one flat array,
// each list sorted ascending, with offsets[v] marking where vertex v's
// list begins (offsets has length n+1, so offsets[n] == 2m).
type Graph struct {
	offsets   []int64
	neighbors []int32
	m         int
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges map[int64]struct{}
	order []Edge // insertion order, for deterministic adjacency
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, edges: make(map[int64]struct{})}
}

// PairKey encodes the unordered pair (u, v) into a single int64 for use
// as a set key; u and v must be distinct vertices below n.
func PairKey(u, v, n int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)*int64(n) + int64(v)
}

// AddEdge records the undirected edge (u, v). It returns false if the
// edge is a self-loop, out of range, or already present.
func (b *Builder) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	key := PairKey(u, v, b.n)
	if _, dup := b.edges[key]; dup {
		return false
	}
	b.edges[key] = struct{}{}
	b.order = append(b.order, Edge{U: u, V: v}.Canon())
	return true
}

// HasEdge reports whether (u, v) has been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	_, ok := b.edges[PairKey(u, v, b.n)]
	return ok
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable graph. The builder may keep being used
// afterwards; subsequent Builds see later additions.
func (b *Builder) Build() *Graph {
	offsets := make([]int64, b.n+1)
	for _, e := range b.order {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, 2*len(b.order))
	fill := make([]int64, b.n)
	for _, e := range b.order {
		neighbors[offsets[e.U]+fill[e.U]] = int32(e.V)
		fill[e.U]++
		neighbors[offsets[e.V]+fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	g := &Graph{offsets: offsets, neighbors: neighbors, m: len(b.order)}
	for v := 0; v < b.n; v++ {
		slices.Sort(neighbors[offsets[v]:offsets[v+1]])
	}
	return g
}

// FromEdges constructs a graph on n vertices from the given edge list,
// ignoring duplicates and self-loops.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// NewCSR adopts the given CSR triple as a graph without copying:
// offsets must have length n+1 with offsets[0] == 0, and
// neighbors[offsets[v]:offsets[v+1]] must be vertex v's neighbor list,
// sorted ascending, with every edge mirrored. No validation is
// performed (call Validate in tests). The caller keeps ownership of the
// slices; this is the adoption hook for engines that rematerialize
// graphs into preallocated buffers (internal/uncertain.Sampler).
func NewCSR(offsets []int64, neighbors []int32, m int) *Graph {
	return &Graph{offsets: offsets, neighbors: neighbors, m: m}
}

// ResetCSR re-points g at the given CSR triple without copying, under
// the same contract as NewCSR. It exists so a world-sampling engine can
// reuse one Graph value — and the buffers behind it — across many
// materializations with zero allocations.
func (g *Graph) ResetCSR(offsets []int64, neighbors []int32, m int) {
	g.offsets = offsets
	g.neighbors = neighbors
	g.m = m
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbor list of v: a subslice of the
// graph's flat CSR array. It is shared with the graph and must not be
// modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the edge (u, v) exists, by binary search on
// the shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	n := g.NumVertices()
	if u == v || u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	t := int32(v)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= t })
	return i < len(a) && a[i] == t
}

// Edges returns all edges with U < V, ordered by (U, V).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	g.ForEachEdge(func(u, v int) {
		edges = append(edges, Edge{U: u, V: v})
	})
	return edges
}

// ForEachEdge calls fn once per edge with u < v, in (u, v) order.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u, n := 0, g.NumVertices(); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// Degrees returns the degree sequence indexed by vertex.
func (g *Graph) Degrees() []int {
	deg := make([]int, g.NumVertices())
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	return deg
}

// MaxDegree returns the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v, n := 0, g.NumVertices(); v < n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AverageDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// DegreeHistogram returns counts[d] = number of vertices of degree d,
// for 0 <= d <= MaxDegree.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for v, n := 0, g.NumVertices(); v < n; v++ {
		counts[g.Degree(v)]++
	}
	return counts
}

// ConnectedComponents returns, for each vertex, the id of its component
// (ids are dense, assigned in discovery order) and the number of
// components.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = count
					queue = append(queue, int(v))
				}
			}
		}
		count++
	}
	return comp, count
}

// Validate checks internal invariants (offset monotonicity, sorted
// adjacency, symmetry, no self-loops, edge-count consistency) and
// returns a descriptive error on the first violation. It is used by
// tests, after deserialization, and to check buffers adopted via
// NewCSR/ResetCSR.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if n > 0 && int(g.offsets[n]) > len(g.neighbors) {
		return fmt.Errorf("graph: offsets[%d] = %d exceeds neighbor array length %d",
			n, g.offsets[n], len(g.neighbors))
	}
	total := 0
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		for i, v := range nbrs {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
		total += len(nbrs)
	}
	if total != 2*g.m {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", total, 2*g.m)
	}
	return nil
}
