package uncertaingraph_test

import (
	"context"
	"fmt"

	ug "uncertaingraph"
)

// ExampleObfuscate publishes a (3, 0.25)-obfuscation of the paper's
// Figure 1(a) graph and verifies it with the adversary model.
func ExampleObfuscate() {
	g := ug.GraphFromEdges(4, []ug.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3},
	})
	res, err := ug.Obfuscate(context.Background(), g,
		ug.WithK(2), ug.WithEps(0.25), ug.WithSeed(7),
		ug.WithObfuscation(ug.ObfuscationParams{Trials: 3, Delta: 1e-3}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("verified:", ug.VerifyObfuscation(res.G, g.Degrees(), 2, 0.25))
	// Output:
	// verified: true
}

// ExampleVerifyObfuscation checks the paper's own worked example: the
// uncertain graph of Figure 1(b) is a (3, 0.25)-obfuscation of the
// graph in Figure 1(a), but not a (3, 0.1)-obfuscation.
func ExampleVerifyObfuscation() {
	original := ug.GraphFromEdges(4, []ug.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3},
	})
	published, _ := ug.NewUncertainGraph(4, []ug.Pair{
		{U: 0, V: 1, P: 0.7}, {U: 0, V: 2, P: 0.9}, {U: 0, V: 3, P: 0.8},
		{U: 1, V: 2, P: 0.8}, {U: 1, V: 3, P: 0.1}, {U: 2, V: 3, P: 0},
	})
	fmt.Println(ug.VerifyObfuscation(published, original.Degrees(), 3, 0.25))
	fmt.Println(ug.VerifyObfuscation(published, original.Degrees(), 3, 0.10))
	// Output:
	// true
	// false
}

// ExampleObfuscationLevels computes the effective crowd size of each
// vertex of Figure 1(a) under the Figure 1(b) publication.
func ExampleObfuscationLevels() {
	original := ug.GraphFromEdges(4, []ug.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3},
	})
	published, _ := ug.NewUncertainGraph(4, []ug.Pair{
		{U: 0, V: 1, P: 0.7}, {U: 0, V: 2, P: 0.9}, {U: 0, V: 3, P: 0.8},
		{U: 1, V: 2, P: 0.8}, {U: 1, V: 3, P: 0.1}, {U: 2, V: 3, P: 0},
	})
	for v, level := range ug.ObfuscationLevels(published, original.Degrees()) {
		fmt.Printf("v%d: %.2f\n", v+1, level)
	}
	// Output:
	// v1: 1.38
	// v2: 3.22
	// v3: 3.34
	// v4: 3.34
}

// ExampleUncertainGraph_ExpectedNumEdges shows the closed-form expected
// statistics of Section 6.2 (no sampling needed).
func ExampleUncertainGraph_ExpectedNumEdges() {
	g, _ := ug.NewUncertainGraph(3, []ug.Pair{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.25},
	})
	fmt.Println(g.ExpectedNumEdges())
	fmt.Println(g.ExpectedAverageDegree())
	// Output:
	// 0.75
	// 0.5
}

// ExampleSampleWorld draws a possible world: every candidate pair
// materializes independently with its probability.
func ExampleSampleWorld() {
	g, _ := ug.NewUncertainGraph(3, []ug.Pair{
		{U: 0, V: 1, P: 1}, {U: 1, V: 2, P: 0},
	})
	w := ug.SampleWorld(g, ug.NewRand(1))
	fmt.Println(w.HasEdge(0, 1), w.HasEdge(1, 2))
	// Output:
	// true false
}

// ExampleNewQueryBatch answers reliability and distance queries on a
// published uncertain graph from one shared set of sampled worlds.
func ExampleNewQueryBatch() {
	g, _ := ug.NewUncertainGraph(3, []ug.Pair{
		{U: 0, V: 1, P: 1}, {U: 1, V: 2, P: 1},
	})
	b, _ := ug.NewQueryBatch(g, ug.WithWorlds(100), ug.WithSeed(2))
	rel := b.AddReliability(0, 2)
	dist := b.AddDistance(0, 2)
	if err := b.Run(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println(b.Reliability(rel))
	fmt.Println(b.MedianDistance(dist))
	// Output:
	// 1
	// 2
}

// ExampleSparsify shows the classic whole-edge baseline the paper
// compares against.
func ExampleSparsify() {
	g := ug.GraphFromEdges(4, []ug.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3},
	})
	published := ug.Sparsify(g, 0.99, ug.NewRand(3))
	fmt.Println(published.NumEdges() < g.NumEdges())
	// Output:
	// true
}

// ExampleDegreeTrailCrowds runs the sequential-release degree-trail
// attack of Section 8 against two certain snapshots.
func ExampleDegreeTrailCrowds() {
	g := ug.GraphFromEdges(4, []ug.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	snapshots := ug.EvolveGraph(g, 2, 0.5, ug.NewRand(4))
	crowds := ug.DegreeTrailCrowds(snapshots)
	fmt.Println(len(crowds))
	// Output:
	// 4
}
