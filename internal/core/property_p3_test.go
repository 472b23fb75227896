package core

import (
	"context"
	"testing"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/graph"
)

func TestP3SignaturesDistinguishStructure(t *testing.T) {
	// Triangle 0-1-2 plus path 3-4-5: vertex 1 (in triangle) and vertex
	// 4 (path middle) both have degree 2, same neighbor degrees under
	// P2? v1 neighbors have degrees 2,2; v4 neighbors have 1,1 — P2
	// separates them too. Use a case only P3 separates: a closed vs
	// open triple with matched neighbor degrees.
	//
	//   0-1, 0-2, 1-2 (triangle)          center 0: nbr degs 2,2, closed
	//   3-4, 3-5, 4-6, 5-7                center 3: nbr degs 2,2, open
	g := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 6}, {U: 5, V: 7},
	})
	p2 := NewNeighborhoodDegreeProperty()
	v2 := p2.Values(g)
	if v2[0] != v2[3] {
		t.Fatal("setup: P2 must see 0 and 3 as equivalent (degree 2, neighbor degrees {2,2})")
	}
	p3 := NewRadiusOneProperty()
	v3 := p3.Values(g)
	if v3[0] == v3[3] {
		t.Error("P3 must separate a closed triangle center from an open one")
	}
	if p3.Distance(v3[0], v3[3]) <= 0 {
		t.Error("distinct signatures must have positive distance")
	}
}

func TestP3SymmetricVerticesShareValue(t *testing.T) {
	// Cycle: every vertex has an isomorphic radius-one subgraph.
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0},
	})
	p := NewRadiusOneProperty()
	vals := p.Values(g)
	for v := 1; v < 6; v++ {
		if vals[v] != vals[0] {
			t.Fatalf("cycle vertices must share the P3 value, got %v", vals)
		}
	}
	if p.Distance(vals[0], vals[0]) != 0 {
		t.Error("identity distance")
	}
}

func TestP3DistanceTriangleLowerBoundSanity(t *testing.T) {
	// K3 center vs path center: signatures (3 vertices, 3 edges,
	// [2 2 2]) vs (3, 2, [2 1 1]) -> |0| + |1| + (0+1+1) = 3.
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
		{U: 3, V: 4}, {U: 3, V: 5},
	})
	p := NewRadiusOneProperty()
	vals := p.Values(g)
	if got := p.Distance(vals[0], vals[3]); got != 3 {
		t.Errorf("distance = %v, want 3", got)
	}
}

func TestObfuscateWithP3Property(t *testing.T) {
	g := testGraph(41, 200)
	res, err := Obfuscate(context.Background(), g, Params{
		K: 4, Eps: 0.15, Trials: 2, Delta: 1e-3,
		Property: NewRadiusOneProperty(),
		Seed:     3440579354231278675,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := adversary.UncertainModel{G: res.G}
	if !adversary.IsKEpsObfuscation(model, g.Degrees(), 4, 0.15) {
		t.Error("P3-scored obfuscation fails degree verification")
	}
}
