package anf

import (
	"context"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/hll"
	"uncertaingraph/internal/randx"
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
// iteration, kept as the reference for the Engine's: each iteration
// rebuilds next[v] = cur[v] ∪ ⋃_{u~v} cur[u] for every v, a register
// at a time, and re-estimates every counter.
func referenceNeighbourhoodFunction(g *graph.Graph, opt Options) []float64 {
	opt = opt.withDefaults()
	n, w := g.NumVertices(), hll.Words(opt.Bits)
	cur, next := make([]uint64, n*w), make([]uint64, n*w)
	for v := 0; v < n; v++ {
		hll.FromWords(cur[v*w : (v+1)*w]).AddHash(hll.Hash64(uint64(v), opt.Seed))
	}
	nf := []float64{sumEstimates(cur, w)}
	for t := 1; t <= opt.MaxIter; t++ {
		changed := false
		for v := 0; v < n; v++ {
			copy(next[v*w:(v+1)*w], cur[v*w:(v+1)*w])
			for _, u := range g.Neighbors(v) {
				if union(next[v*w:(v+1)*w], cur[int(u)*w:(int(u)+1)*w]) {
					changed = true
				}
			}
		}
		cur, next = next, cur
		nf = append(nf, sumEstimates(cur, w))
		if !changed {
			break
		}
	}
	return nf
}

// union raises each register of dst to src's where src's is larger, a
// register at a time, and reports whether any rose.
func union(dst, src []uint64) bool {
	changed := false
	for k := range dst {
		for j := 0; j < 64; j += 8 {
			if r := src[k] >> j & 0xFF; r > dst[k]>>j&0xFF {
				dst[k] = dst[k]&^(0xFF<<j) | r<<j
				changed = true
			}
		}
	}
	return changed
}

// sumEstimates returns the estimates of the w-word counters of bank,
// added in vertex order.
func sumEstimates(bank []uint64, w int) float64 {
	var sum float64
	for o := 0; o < len(bank); o += w {
		sum += hll.FromWords(bank[o : o+w]).Estimate()
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

// sparseCorpus returns graphs whose runs end in sparse iterations:
// random graphs with isolated vertices, a hub joined to some of them
// and long paths hanging off, in a few sizes.
func sparseCorpus() []*graph.Graph {
	var out []*graph.Graph
	for i, n := range []int{150, 40, 400} {
		rng := randx.New(int64(60 + i))
		b := graph.NewBuilder(n)
		gen.ErdosRenyiGNM(rng, n/2, n/2).ForEachEdge(func(u, v int) { b.AddEdge(u, v) })
		hub := n / 2
		for v := 0; v < n/2; v += 3 {
			b.AddEdge(hub, v)
		}
		// Two paths off the hub; the last tenth of the vertices stays
		// isolated.
		for v := hub + 1; v < n-n/10-1; v++ {
			if v == hub+(n-hub)/3 {
				b.AddEdge(hub, v)
				continue
			}
			b.AddEdge(v-1, v)
		}
		out = append(out, b.Build())
	}
	return out
}

// evaluateWorlds returns worlds sampled from the release cmd/evaluate
// runs at its defaults: the (k=10, ε=0.02)-obfuscation of the dblp
// small stand-in, obfuscation seed 1.
func evaluateWorlds(t *testing.T, count int) []*graph.Graph {
	t.Helper()
	spec, err := datasets.ByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	d, err := datasets.Generate(spec, datasets.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Obfuscate(context.Background(), d.Graph, core.Params{K: 10, Eps: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*graph.Graph, count)
	for i := range worlds {
		worlds[i] = res.G.SampleWorld(randx.New(int64(i + 1)))
	}
	return worlds
}

// TestEngineReuseMatchesFullRecompute drives one Engine per register
// exponent and hll path through growing, shrinking and regrowing graph
// sizes — so both the fresh-buffer and the zero-in-place paths run,
// and stale registers, estimates and lists from a larger graph sit in
// the buffers — and requires every run to equal the full recompute
// and its distance distribution to equal a fresh Engine's. It runs b in
// {4, 6, 7, 8, 16} on both paths, over random graphs, a path, the
// empty graph, a single vertex, graphs whose runs end in sparse
// iterations (isolated vertices, a hub, long paths) and worlds of
// evaluate's release. A graph whose bank half would exceed 2^20 words
// (8 MiB) is left out at that exponent: at b = 16 that keeps the
// graphs of at most 128 vertices, where a dense Step splits into
// several kernel calls.
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
	graphs = append(graphs, sparseCorpus()...)
	worlds := 3
	if testing.Short() {
		worlds = 1
	}
	graphs = append(graphs, evaluateWorlds(t, worlds)...)
	for _, b := range []int{4, 6, 7, 8, 16} {
		want := make([][]float64, len(graphs))
		for i, g := range graphs {
			if g.NumVertices()*hll.Words(b) <= 1<<20 {
				want[i] = referenceNeighbourhoodFunction(g, Options{Bits: b, Seed: uint64(b + i)})
			}
		}
		hll.EachKernel(func(kernel string) {
			e := NewEngine(Options{Bits: b})
			for i, g := range graphs {
				if want[i] == nil {
					continue
				}
				opt := Options{Bits: b, Seed: uint64(b + i)}
				if got := e.NeighbourhoodFunction(g, opt.Seed); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s b=%d graph %d (n=%d): reused Engine's neighbourhood function\n got %v\nwant %v", kernel, b, i, g.NumVertices(), got, want[i])
				}
				if got, want := e.DistanceDistribution(g, opt.Seed), DistanceDistribution(g, opt); !reflect.DeepEqual(got, want) {
					t.Errorf("%s b=%d graph %d (n=%d): reused Engine's distance distribution %v, want %v", kernel, b, i, g.NumVertices(), got, want)
				}
			}
		})
	}
}

// TestFirstEstimateIsSingleton requires N(0) to be, bit for bit, the
// vertex-order sum of Counter.Estimate over one-element counters, for
// every register exponent: the Engine sets every t = 0 estimate to
// hll's Singleton without scanning a counter.
func TestFirstEstimateIsSingleton(t *testing.T) {
	g := pathGraph(37)
	for b := 4; b <= 16; b++ {
		var want float64
		for v := 0; v < g.NumVertices(); v++ {
			c := hll.New(b)
			c.AddHash(hll.Hash64(uint64(v), 5))
			want += c.Estimate()
		}
		hll.EachKernel(func(kernel string) {
			nf := NewEngine(Options{Bits: b, MaxIter: 1}).NeighbourhoodFunction(g, 5)
			if math.Float64bits(nf[0]) != math.Float64bits(want) {
				t.Errorf("%s b=%d: N(0) = %v, want %v", kernel, b, nf[0], want)
			}
		})
	}
}
