// Queries demonstrates analyzing a *published* uncertain graph: the
// data consumer never sees the original, yet reliability, distances and
// nearest neighbours remain answerable (the paper's usefulness
// argument, Sections 1 and 6).
//
//	go run ./examples/queries
package main

import (
	"context"
	"fmt"
	"log"

	ug "uncertaingraph"
)

func main() {
	ctx := context.Background()

	// The publisher's side: obfuscate and release.
	g := ug.SocialGraph(ug.NewRand(1), 250, 320, []float64{0, 0, 0.6, 0.3, 0.1}, 0.4)
	res, err := ug.Obfuscate(ctx, g,
		ug.WithK(5), ug.WithEps(0.1), ug.WithSeed(2),
		ug.WithObfuscation(ug.ObfuscationParams{Trials: 2, Delta: 1e-3}))
	if err != nil {
		log.Fatal(err)
	}
	published := res.G
	fmt.Printf("published uncertain graph: %d vertices, %d candidate pairs\n",
		published.NumVertices(), published.NumPairs())

	// The consumer's side: only `published` from here on. A batch
	// samples its worlds once and evaluates every registered query
	// against them — one bit-parallel BFS per distinct source per
	// group of up to 64 worlds, shared by all queries with that source,
	// zero allocations in the steady-state loop. This is what cmd/queryd runs per request; the
	// daemon passes each request's context to Run, so a dropped client
	// stops the work mid-flight.
	batch, err := ug.NewQueryBatch(published, ug.WithWorlds(1000), ug.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	s, t := 0, 1
	relID := batch.AddReliability(s, t)
	distID := batch.AddDistance(s, t)
	knnID := batch.AddKNearest(s, 5)
	if err := batch.Run(ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nreliability Pr(%d ~ %d) = %.3f\n", s, t, batch.Reliability(relID))
	dist, disc := batch.DistanceDistribution(distID)
	fmt.Printf("distance distribution %d -> %d (P(disconnected)=%.3f):\n", s, t, disc)
	for d := 1; d <= 6; d++ {
		if p, ok := dist[d]; ok {
			fmt.Printf("  d=%d: %.3f\n", d, p)
		}
	}
	fmt.Printf("median distance: %d\n", batch.MedianDistance(distID))
	fmt.Printf("\n5 nearest neighbours of %d (with median distances): %v\n",
		s, batch.KNearestWithMedians(knnID))

	// Expected degrees are closed-form: no sampling needed.
	fmt.Printf("expected degree of %d: %.2f\n", s, published.ExpectedDegree(s))
}
