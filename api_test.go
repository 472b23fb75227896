package uncertaingraph_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	ug "uncertaingraph"
)

// TestPublicAPIEndToEnd exercises the full facade the way a downstream
// user would: build a graph, obfuscate, verify, estimate utility,
// compare against a baseline, round-trip the publication format.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := ug.NewRand(1)
	g := ug.SocialGraph(rng, 400, 500, []float64{0, 0, 0.5, 0.3, 0.2}, 0.4)
	if g.NumVertices() != 400 || g.NumEdges() == 0 {
		t.Fatal("generator failed")
	}

	res, err := ug.Obfuscate(context.Background(), g,
		ug.WithK(5), ug.WithEps(0.1), ug.WithSeed(2),
		ug.WithObfuscation(ug.ObfuscationParams{Trials: 2, Delta: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if !ug.VerifyObfuscation(res.G, g.Degrees(), 5, 0.1) {
		t.Error("published graph fails independent verification")
	}
	levels := ug.ObfuscationLevels(res.G, g.Degrees())
	if len(levels) != 400 {
		t.Fatal("level count")
	}

	rep, err := ug.EstimateStatistics(context.Background(), res.G,
		ug.WithWorlds(10), ug.WithSeed(3), ug.WithDistances(ug.DistanceExactBFS))
	if err != nil {
		t.Fatal(err)
	}
	real, err := ug.Statistics(context.Background(), g, ug.WithDistances(ug.DistanceExactBFS))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelErr("S_NE", real["S_NE"]) > 0.5 {
		t.Errorf("S_NE error %v implausibly large", rep.RelErr("S_NE", real["S_NE"]))
	}

	// Baselines and their anonymity.
	sp := ug.Sparsify(g, 0.3, ug.NewRand(4))
	if sp.NumEdges() >= g.NumEdges() {
		t.Error("sparsification did not remove edges")
	}
	if lv := ug.SparsifyAnonymity(g, sp, 0.3); len(lv) != 400 {
		t.Error("sparsify anonymity length")
	}
	pt := ug.Perturb(g, 0.3, ug.NewRand(5))
	if lv := ug.PerturbAnonymity(g, pt, 0.3); len(lv) != 400 {
		t.Error("perturb anonymity length")
	}

	// Publication round trip.
	var buf bytes.Buffer
	if err := ug.WriteUncertainGraph(&buf, res.G); err != nil {
		t.Fatal(err)
	}
	back, err := ug.ReadUncertainGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPairs() != res.G.NumPairs() {
		t.Error("round trip lost pairs")
	}
	if math.Abs(back.ExpectedNumEdges()-res.G.ExpectedNumEdges()) > 1e-6 {
		t.Error("round trip changed expected edges")
	}
}

func TestPublicGraphIO(t *testing.T) {
	g := ug.GraphFromEdges(3, []ug.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := ug.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ug.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Error("graph IO round trip")
	}
}

func TestPublicDistancePipelines(t *testing.T) {
	g := ug.ErdosRenyi(ug.NewRand(6), 300, 900)
	exact := ug.ExactDistances(g)
	approx := ug.ApproxDistances(g, 9, 1)
	if exact.AvgDistance() <= 0 {
		t.Fatal("exact distances empty")
	}
	rel := math.Abs(exact.AvgDistance()-approx.AvgDistance()) / exact.AvgDistance()
	if rel > 0.1 {
		t.Errorf("ANF AvgDistance off by %v", rel)
	}
	if cc := ug.ClusteringCoefficient(g); cc < 0 || cc > 1 {
		t.Errorf("clustering coefficient %v", cc)
	}
	dd := ug.DegreeDistribution(g)
	var sum float64
	for _, f := range dd {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Error("degree distribution normalization")
	}
}

// TestApproxDistancesBitsContract pins ApproxDistances' documented
// contract on bits: 0 (the default) and the ends of [4, 16] run, and
// any other value panics instead of sizing counters from it.
func TestApproxDistancesBitsContract(t *testing.T) {
	g := ug.ErdosRenyi(ug.NewRand(7), 40, 80)
	for _, bits := range []int{0, 4, 16, 3, 17, -1} {
		wantPanic := bits != 0 && (bits < 4 || bits > 16)
		func() {
			defer func() {
				if r := recover(); (r != nil) != wantPanic {
					t.Errorf("bits=%d: recovered %v, want a panic: %v", bits, r, wantPanic)
				}
			}()
			if d := ug.ApproxDistances(g, bits, 1); d.AvgDistance() <= 0 {
				t.Errorf("bits=%d: average distance %v", bits, d.AvgDistance())
			}
		}()
	}
}

func TestAttackAndQueryFacade(t *testing.T) {
	g := ug.SocialGraph(ug.NewRand(8), 300, 360, []float64{0, 0, 0.6, 0.4}, 0.3)
	snaps := ug.EvolveGraph(g, 2, 0.2, ug.NewRand(9))
	if len(snaps) != 2 {
		t.Fatal("snapshot count")
	}
	trails := ug.DegreeTrails(snaps)
	crowds := ug.DegreeTrailCrowds(snaps)
	if len(crowds) != 300 || len(trails) != 300 {
		t.Fatal("attack output sizes")
	}
	published := []*ug.UncertainGraph{ug.CertainGraph(snaps[0]), ug.CertainGraph(snaps[1])}
	levels := ug.SequentialObfuscationLevels(published, trails, []int{0, 1, 2})
	for i, l := range levels {
		// Certain releases degenerate to exact trail matching.
		if math.Abs(l-float64(crowds[i])) > 1e-6 {
			t.Errorf("target %d: level %v vs crowd %d", i, l, crowds[i])
		}
	}

	// Belief anonymity is dominated by the entropy level.
	c := ug.CertainGraph(g)
	bel := ug.BeliefAnonymity(c, g.Degrees())
	ent := ug.ObfuscationLevels(c, g.Degrees())
	for v := range bel {
		if ent[v] < bel[v]-1e-9 {
			t.Fatalf("vertex %d: entropy level %v below belief %v", v, ent[v], bel[v])
		}
	}

	// Query batch over a certain publication: exact semantics.
	b, err := ug.NewQueryBatch(c, ug.WithWorlds(50), ug.WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	self := b.AddReliability(0, 0)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.Reliability(self) != 1 {
		t.Error("self reliability")
	}
}

// TestQueryBatchFacade exercises the batched serving path through the
// public facade: one world set shared by all registered queries, exact
// answers on certain structure, and the count-rule median surfaced via
// KNearestWithMedians.
func TestQueryBatchFacade(t *testing.T) {
	g, err := ug.NewUncertainGraph(4, []ug.Pair{
		{U: 0, V: 1, P: 1}, {U: 1, V: 2, P: 1}, {U: 2, V: 3, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ug.NewQueryBatch(g, ug.WithWorlds(200), ug.WithSeed(3), ug.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rel := b.AddReliability(0, 2)
	dist := b.AddDistance(0, 2)
	knn := b.AddKNearest(0, 2)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.Reliability(rel); got != 1 {
		t.Errorf("Pr(0~2) = %v, want 1 (certain path)", got)
	}
	if got := b.MedianDistance(dist); got != 2 {
		t.Errorf("median(0,2) = %d, want 2", got)
	}
	want := []ug.QueryNeighbor{{V: 1, Median: 1}, {V: 2, Median: 2}}
	if got := b.KNearestWithMedians(knn); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("KNearestWithMedians = %v, want %v", got, want)
	}

	// WithMemoryBudget: a k-NN set priced over the budget fails Run
	// with the typed ErrOverBudget before any accumulator grows.
	tight, err := ug.NewQueryBatch(g, ug.WithWorlds(50), ug.WithMemoryBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	tight.AddKNearest(0, 2)
	if err := tight.Run(context.Background()); !errors.Is(err, ug.ErrOverBudget) {
		t.Errorf("over-budget Run err = %v, want ErrOverBudget", err)
	}
}

func TestCertainGraphSemantics(t *testing.T) {
	g := ug.GraphFromEdges(4, []ug.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	c := ug.CertainGraph(g)
	w := ug.SampleWorld(c, ug.NewRand(7))
	if w.NumEdges() != 2 || !w.HasEdge(0, 1) || !w.HasEdge(2, 3) {
		t.Error("certain graph must sample to itself")
	}
	// A certain graph's obfuscation level is the degree crowd size.
	levels := ug.ObfuscationLevels(c, g.Degrees())
	for _, l := range levels {
		if math.Abs(l-4) > 1e-9 {
			t.Errorf("level %v, want 4 (all vertices share degree 1)", l)
		}
	}
}
