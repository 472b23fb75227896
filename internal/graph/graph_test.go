package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperGraph is the original 4-vertex graph of paper Figure 1(a):
// edges (v1,v2), (v1,v3), (v1,v4), (v3,v4), so deg(v1)=3, deg(v2)=1,
// deg(v3)=deg(v4)=2.
func paperGraph() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {2, 3}})
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if !b.AddEdge(0, 1) {
		t.Error("first add should succeed")
	}
	if b.AddEdge(1, 0) {
		t.Error("duplicate (reversed) edge accepted")
	}
	if b.AddEdge(2, 2) {
		t.Error("self-loop accepted")
	}
	if b.AddEdge(0, 4) || b.AddEdge(-1, 0) {
		t.Error("out-of-range edge accepted")
	}
	if !b.HasEdge(1, 0) {
		t.Error("HasEdge misses added edge")
	}
	if b.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", b.NumEdges())
	}
}

func TestPaperGraphShape(t *testing.T) {
	g := paperGraph()
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	wantDeg := []int{3, 1, 2, 2}
	if got := g.Degrees(); !reflect.DeepEqual(got, wantDeg) {
		t.Errorf("degrees = %v, want %v", got, wantDeg)
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AverageDegree() != 2 {
		t.Errorf("AverageDegree = %v, want 2", g.AverageDegree())
	}
	if !g.HasEdge(2, 3) || g.HasEdge(1, 2) {
		t.Error("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEdgesOrderAndForEach(t *testing.T) {
	g := paperGraph()
	want := []Edge{{0, 1}, {0, 2}, {0, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	var seen []Edge
	g.ForEachEdge(func(u, v int) { seen = append(seen, Edge{u, v}) })
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("ForEachEdge visited %v, want %v", seen, want)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := paperGraph()
	want := []int{0, 1, 2, 1} // one deg-1, two deg-2, one deg-3
	if got := g.DegreeHistogram(); !reflect.DeepEqual(got, want) {
		t.Errorf("histogram = %v, want %v", got, want)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("isolated 5 in wrong component")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 || g.AverageDegree() != 0 {
		t.Error("empty graph stats wrong")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPairKeyUniqueSymmetric(t *testing.T) {
	n := 50
	seen := map[int64][2]int{}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			k := PairKey(u, v, n)
			if k != PairKey(v, u, n) {
				t.Fatal("PairKey not symmetric")
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("collision: (%d,%d) and %v", u, v, prev)
			}
			seen[k] = [2]int{u, v}
		}
	}
}

// Property: a graph built from any random edge set validates, and its
// degree sum equals twice the edge count.
func TestGraphInvariantsProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%40) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			return false
		}
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges() && g.NumEdges() == b.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsShared(t *testing.T) {
	g := paperGraph()
	nbrs := g.Neighbors(0)
	if !reflect.DeepEqual(nbrs, []int32{1, 2, 3}) {
		t.Errorf("Neighbors(0) = %v", nbrs)
	}
}

func TestBuilderRebuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.NumEdges() != 1 || g2.NumEdges() != 2 {
		t.Error("builds should snapshot builder state")
	}
}
