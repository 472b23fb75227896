package anf

import (
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/stats"
)

func TestNeighbourhoodFunctionMonotone(t *testing.T) {
	g := gen.HolmeKim(randx.New(1), 500, 3, 0.3)
	nf := NeighbourhoodFunction(g, Options{Bits: 8, Seed: 1})
	for i := 1; i < len(nf); i++ {
		if nf[i] < nf[i-1]-1e-9 {
			t.Fatalf("N(%d) = %v < N(%d) = %v", i, nf[i], i-1, nf[i-1])
		}
	}
	// N(0) ~ n.
	if math.Abs(nf[0]-500)/500 > 0.15 {
		t.Errorf("N(0) = %v, want ~500", nf[0])
	}
}

func TestNeighbourhoodFunctionCompleteGraph(t *testing.T) {
	g := gen.ErdosRenyiGNP(randx.New(2), 64, 1)
	nf := NeighbourhoodFunction(g, Options{Bits: 10, Seed: 3})
	// Diameter 1: the function must stabilize at ~n^2 after one step.
	last := nf[len(nf)-1]
	if math.Abs(last-64*64)/(64*64) > 0.1 {
		t.Errorf("N(inf) = %v, want ~4096", last)
	}
	if len(nf) > 3 {
		t.Errorf("K64 should stabilize after ~1 iteration, got %d points", len(nf))
	}
}

func TestDistanceDistributionMatchesBFS(t *testing.T) {
	g := gen.HolmeKim(randx.New(4), 1000, 3, 0.3)
	exact := bfs.DistanceDistribution(g)
	est := DistanceDistribution(g, Options{Bits: 9, Seed: 7})
	// Scalar statistics should agree within HLL error.
	if rel := math.Abs(est.AvgDistance()-exact.AvgDistance()) / exact.AvgDistance(); rel > 0.1 {
		t.Errorf("APD est %v vs exact %v (rel %v)", est.AvgDistance(), exact.AvgDistance(), rel)
	}
	if rel := math.Abs(est.EffectiveDiameter(0.9)-exact.EffectiveDiameter(0.9)) / exact.EffectiveDiameter(0.9); rel > 0.15 {
		t.Errorf("EDiam est %v vs exact %v", est.EffectiveDiameter(0.9), exact.EffectiveDiameter(0.9))
	}
	// Diameter estimate is a lower bound up to HLL noise; it must be in
	// the right ballpark.
	if est.Diameter() < exact.Diameter()-3 || est.Diameter() > exact.Diameter()+3 {
		t.Errorf("DiamLB est %d vs exact %d", est.Diameter(), exact.Diameter())
	}
}

func TestDistanceDistributionDisconnectedComponents(t *testing.T) {
	// Two separate cliques: half of all pairs are disconnected.
	b := graph.NewBuilder(40)
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+20, v+20)
		}
	}
	g := b.Build()
	est := DistanceDistribution(g, Options{Bits: 10, Seed: 9})
	wantDisc := float64(20 * 20)
	if math.Abs(est.Disconnected-wantDisc)/wantDisc > 0.2 {
		t.Errorf("Disconnected = %v, want ~%v", est.Disconnected, wantDisc)
	}
}

func TestJackknifedErrorSmall(t *testing.T) {
	g := gen.HolmeKim(randx.New(5), 600, 3, 0.3)
	exact := bfs.DistanceDistribution(g).AvgDistance()
	est, se := Jackknifed(g, Options{Bits: 8, Seed: 20}, 8, func(d stats.DistanceDistribution) float64 {
		return d.AvgDistance()
	})
	if math.Abs(est-exact)/exact > 0.08 {
		t.Errorf("jackknifed APD %v vs exact %v", est, exact)
	}
	if se <= 0 || se/est > 0.05 {
		t.Errorf("standard error %v implausible (paper reports 0.2%%-2%%)", se/est)
	}
}

func TestSeedChangesEstimatesSlightly(t *testing.T) {
	g := gen.HolmeKim(randx.New(6), 400, 3, 0.3)
	a := DistanceDistribution(g, Options{Bits: 7, Seed: 1}).AvgDistance()
	b := DistanceDistribution(g, Options{Bits: 7, Seed: 2}).AvgDistance()
	if a == b {
		t.Error("different seeds should perturb the estimate")
	}
	if math.Abs(a-b)/a > 0.2 {
		t.Errorf("seeds disagree too much: %v vs %v", a, b)
	}
}

func TestMaxIterCapsRun(t *testing.T) {
	// A long path needs ~n iterations; capping must stop early.
	b := graph.NewBuilder(200)
	for i := 0; i < 199; i++ {
		b.AddEdge(i, i+1)
	}
	nf := NeighbourhoodFunction(b.Build(), Options{Bits: 6, MaxIter: 5, Seed: 1})
	if len(nf) != 6 { // N(0) plus 5 iterations
		t.Errorf("got %d points, want 6", len(nf))
	}
}

// TestEngineMatchesPackageFunctions pins the Engine's reuse contract:
// one Engine driven across graphs of different sizes — growing,
// shrinking, growing again, so both the fresh-buffer and the
// zero-in-place paths run — returns bit-identical neighbourhood
// functions and distance distributions to the one-shot package
// functions with the same options and seed.
func TestEngineMatchesPackageFunctions(t *testing.T) {
	graphs := []*graph.Graph{
		gen.HolmeKim(randx.New(11), 300, 3, 0.3),
		gen.ErdosRenyiGNM(randx.New(12), 80, 120),
		gen.HolmeKim(randx.New(13), 400, 2, 0.1),
	}
	e := NewEngine(Options{Bits: 6})
	for i, g := range graphs {
		seed := uint64(20 + i)
		opt := Options{Bits: 6, Seed: seed}
		if got, want := e.NeighbourhoodFunction(g, seed), NeighbourhoodFunction(g, opt); !reflect.DeepEqual(got, want) {
			t.Errorf("graph %d: Engine neighbourhood function diverges from the package function", i)
		}
		if got, want := e.DistanceDistribution(g, seed), DistanceDistribution(g, opt); !reflect.DeepEqual(got, want) {
			t.Errorf("graph %d: Engine distance distribution %v, want %v", i, got, want)
		}
	}
}
