package anf

import (
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/hll"
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
	nf := NeighbourhoodFunction(pathGraph(200), Options{Bits: 6, MaxIter: 5, Seed: 1})
	if len(nf) != 6 { // N(0) plus 5 iterations
		t.Errorf("got %d points, want 6", len(nf))
	}
}

// referenceNeighbourhoodFunction is HyperANF's full-recompute
// iteration, kept as the reference for the Engine's systolic one: each
// iteration rebuilds next[v] = cur[v] ∪ ⋃_{u~v} cur[u] for every v in
// freshly allocated counters and re-estimates every counter.
func referenceNeighbourhoodFunction(g *graph.Graph, opt Options) []float64 {
	opt = opt.withDefaults()
	n := g.NumVertices()
	cur := make([]hll.Counter, n)
	next := make([]hll.Counter, n)
	for v := 0; v < n; v++ {
		cur[v] = hll.New(opt.Bits)
		cur[v].AddHash(hll.Hash64(uint64(v), opt.Seed))
		next[v] = hll.New(opt.Bits)
	}
	nf := []float64{sumEstimates(cur)}
	for t := 1; t <= opt.MaxIter; t++ {
		changed := iterate(g, cur, next)
		cur, next = next, cur
		nf = append(nf, sumEstimates(cur))
		if !changed {
			break
		}
	}
	return nf
}

// iterate computes next[v] = cur[v] ∪ (∪_{u ~ v} cur[u]) for every v
// and reports whether any counter changed.
func iterate(g *graph.Graph, cur, next []hll.Counter) bool {
	anyChanged := false
	for v := range cur {
		next[v].CopyFrom(cur[v])
		for _, u := range g.Neighbors(v) {
			if next[v].Union(cur[u]) {
				anyChanged = true
			}
		}
	}
	return anyChanged
}

func sumEstimates(counters []hll.Counter) float64 {
	var sum float64
	for _, c := range counters {
		sum += c.Estimate()
	}
	return sum
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// TestSystolicMatchesFullRecompute pins the Engine's exactness
// contract: its systolic, broadword iteration returns the full
// recompute's neighbourhood function bit for bit, iteration count
// included. The corpus covers the shapes where a systolic iteration
// could diverge: scale-free and uniform random graphs, a long path
// (many iterations, a thin frontier), a star (one hub unioning every
// leaf), disconnected components, isolated vertices, and the
// degenerate n = 0 and n = 1.
func TestSystolicMatchesFullRecompute(t *testing.T) {
	star := graph.NewBuilder(60)
	for v := 1; v < 60; v++ {
		star.AddEdge(0, v)
	}
	twoComponents := graph.NewBuilder(70)
	gen.HolmeKim(randx.New(14), 40, 2, 0.2).ForEachEdge(func(u, v int) { twoComponents.AddEdge(u, v) })
	gen.ErdosRenyiGNM(randx.New(15), 30, 60).ForEachEdge(func(u, v int) { twoComponents.AddEdge(u+40, v+40) })
	isolated := graph.NewBuilder(50)
	for v := 0; v < 20; v += 2 {
		isolated.AddEdge(v, v+1)
	}
	corpus := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"holme-kim", gen.HolmeKim(randx.New(11), 300, 3, 0.3), Options{Bits: 7, Seed: 1}},
		{"gnm", gen.ErdosRenyiGNM(randx.New(12), 80, 120), Options{Bits: 4, Seed: 2}},
		{"path", pathGraph(200), Options{Bits: 6, Seed: 3}},
		{"path-maxiter-5", pathGraph(200), Options{Bits: 6, MaxIter: 5, Seed: 3}},
		{"star", star.Build(), Options{Bits: 10, Seed: 4}},
		{"two-components", twoComponents.Build(), Options{Bits: 7, Seed: 5}},
		{"isolated-vertices", isolated.Build(), Options{Bits: 5, Seed: 6}},
		{"empty", graph.NewBuilder(0).Build(), Options{Seed: 7}},
		{"single-vertex", graph.NewBuilder(1).Build(), Options{Seed: 8}},
	}
	for _, c := range corpus {
		want := referenceNeighbourhoodFunction(c.g, c.opt)
		if got := NeighbourhoodFunction(c.g, c.opt); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: neighbourhood function\n got %v\nwant %v", c.name, got, want)
		}
	}
}

// TestEngineReuseMatchesFullRecompute drives one Engine through
// growing, shrinking and regrowing graph sizes — so both the
// fresh-buffer and the zero-in-place paths run, and stale registers,
// estimates and change flags from a larger graph sit in the buffers —
// and requires every run to equal the full recompute, and its distance
// distribution to equal a fresh Engine's.
func TestEngineReuseMatchesFullRecompute(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyiGNM(randx.New(12), 80, 120),
		gen.HolmeKim(randx.New(11), 300, 3, 0.3),
		pathGraph(200),
		graph.NewBuilder(0).Build(),
		gen.HolmeKim(randx.New(13), 400, 2, 0.1),
		graph.NewBuilder(1).Build(),
		gen.ErdosRenyiGNM(randx.New(16), 120, 200),
	}
	e := NewEngine(Options{Bits: 6})
	for i, g := range graphs {
		opt := Options{Bits: 6, Seed: uint64(20 + i)}
		if got, want := e.NeighbourhoodFunction(g, opt.Seed), referenceNeighbourhoodFunction(g, opt); !reflect.DeepEqual(got, want) {
			t.Errorf("graph %d (n=%d): reused Engine's neighbourhood function diverges from the full recompute", i, g.NumVertices())
		}
		if got, want := e.DistanceDistribution(g, opt.Seed), DistanceDistribution(g, opt); !reflect.DeepEqual(got, want) {
			t.Errorf("graph %d (n=%d): reused Engine's distance distribution %v, want %v", i, g.NumVertices(), got, want)
		}
	}
}
