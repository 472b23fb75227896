package bfs

import (
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

func TestFromSourcePath(t *testing.T) {
	// 0-1-2-3 path.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	d := FromSource(g, 0)
	want := []int{0, 1, 2, 3}
	for v := range want {
		if d[v] != want[v] {
			t.Errorf("dist(0,%d) = %d, want %d", v, d[v], want[v])
		}
	}
}

func TestFromSourceUnreachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	d := FromSource(g, 0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable vertices should be -1, got %v", d)
	}
}

func TestFromSourceIntoMatchesFromSource(t *testing.T) {
	g := gen.HolmeKim(randx.New(6), 300, 3, 0.3)
	s := NewScratch()
	for _, src := range []int{0, 7, 150, 299} {
		want := FromSource(g, src)
		got := s.FromSourceInto(g, src)
		for v := range want {
			if int(got[v]) != want[v] {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
	// Disconnected structure: distances stay -1, across reuse.
	g2 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	d := s.FromSourceInto(g2, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != -1 || d[3] != -1 {
		t.Errorf("got %v, want [0 1 -1 -1]", d)
	}
}

// TestFromSourceTargetsIntoMatchesFull pins the early-exit contract:
// for every registered target the distance is bit-identical to the
// full walk, across reachable targets, unreachable targets, duplicate
// targets and targets equal to the source.
func TestFromSourceTargetsIntoMatchesFull(t *testing.T) {
	g := gen.HolmeKim(randx.New(6), 300, 3, 0.3)
	s := NewScratch()
	full := NewScratch()
	rng := randx.New(99)
	for _, src := range []int{0, 7, 150, 299} {
		want := append([]int32(nil), full.FromSourceInto(g, src)...)
		for trial := 0; trial < 20; trial++ {
			targets := make([]int32, 1+rng.Intn(6))
			for i := range targets {
				targets[i] = int32(rng.Intn(300))
			}
			if trial%5 == 0 {
				targets = append(targets, int32(src), targets[0]) // src + duplicate
			}
			got := s.FromSourceTargetsInto(g, src, targets)
			for _, tv := range targets {
				if got[tv] != want[tv] {
					t.Fatalf("src %d targets %v: dist[%d] = %d, want %d", src, targets, tv, got[tv], want[tv])
				}
			}
		}
	}
	// A component-disconnected target exhausts the walk and stays -1,
	// and a target list containing only the source terminates at once.
	g2 := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	d := s.FromSourceTargetsInto(g2, 0, []int32{1, 3})
	if d[0] != 0 || d[1] != 1 || d[3] != -1 {
		t.Errorf("disconnected walk: got [%d %d _ %d], want [0 1 _ -1]", d[0], d[1], d[3])
	}
	d = s.FromSourceTargetsInto(g2, 2, []int32{2, 2})
	if d[2] != 0 {
		t.Errorf("self-target walk: dist[2] = %d, want 0", d[2])
	}
}

// TestFromSourceTargetsIntoStopsEarly asserts the exit is real: on a
// long path with the target next to the source, the walk must leave
// the far end untouched (-1), which a full BFS would have reached.
func TestFromSourceTargetsIntoStopsEarly(t *testing.T) {
	n := 1000
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	g := graph.FromEdges(n, edges)
	s := NewScratch()
	d := s.FromSourceTargetsInto(g, 0, []int32{1})
	if d[1] != 1 {
		t.Fatalf("dist[1] = %d, want 1", d[1])
	}
	if d[n-1] != -1 {
		t.Errorf("walk reached the far end (dist[%d] = %d); early exit did not fire", n-1, d[n-1])
	}
}

func TestFromSourceTargetsIntoZeroAllocsWhenWarm(t *testing.T) {
	g := gen.HolmeKim(randx.New(8), 200, 3, 0.3)
	s := NewScratch()
	targets := []int32{13, 44, 170}
	s.FromSourceTargetsInto(g, 0, targets) // grow buffers
	src := 0
	allocs := testing.AllocsPerRun(50, func() {
		s.FromSourceTargetsInto(g, src, targets)
		src = (src + 17) % 200
	})
	if allocs != 0 {
		t.Errorf("warm FromSourceTargetsInto allocates %v times, want 0", allocs)
	}
}

func TestFromSourceIntoZeroAllocsWhenWarm(t *testing.T) {
	g := gen.HolmeKim(randx.New(8), 200, 3, 0.3)
	s := NewScratch()
	s.FromSourceInto(g, 0) // grow buffers
	src := 0
	allocs := testing.AllocsPerRun(50, func() {
		s.FromSourceInto(g, src)
		src = (src + 17) % 200
	})
	if allocs != 0 {
		t.Errorf("warm FromSourceInto allocates %v times, want 0", allocs)
	}
}

func TestDistanceDistributionPath(t *testing.T) {
	// Path on 4 vertices: distances 1x3, 2x2, 3x1.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	d := DistanceDistribution(g)
	want := []float64{0, 3, 2, 1}
	for dist := 1; dist < len(want); dist++ {
		if d.Counts[dist] != want[dist] {
			t.Errorf("count(%d) = %v, want %v", dist, d.Counts[dist], want[dist])
		}
	}
	if d.Disconnected != 0 {
		t.Errorf("Disconnected = %v, want 0", d.Disconnected)
	}
	if d.Diameter() != 3 {
		t.Errorf("Diameter = %d, want 3", d.Diameter())
	}
}

func TestDistanceDistributionDisconnected(t *testing.T) {
	// Two disjoint edges on 4 vertices: 2 pairs at distance 1, 4
	// disconnected pairs.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	d := DistanceDistribution(g)
	if d.Counts[1] != 2 {
		t.Errorf("count(1) = %v, want 2", d.Counts[1])
	}
	if d.Disconnected != 4 {
		t.Errorf("Disconnected = %v, want 4", d.Disconnected)
	}
	if d.TotalPairs() != 6 {
		t.Errorf("TotalPairs = %v, want 6", d.TotalPairs())
	}
}

func TestDistanceDistributionCompleteGraph(t *testing.T) {
	g := gen.ErdosRenyiGNP(randx.New(1), 20, 1)
	d := DistanceDistribution(g)
	if d.Counts[1] != 190 || d.Diameter() != 1 {
		t.Errorf("K20: counts %v", d.Counts)
	}
}

func TestSampledApproximatesExact(t *testing.T) {
	g := gen.HolmeKim(randx.New(2), 800, 3, 0.3)
	exact := DistanceDistribution(g)
	sampled := NewScratch().SampledDistanceDistribution(g, 200, randx.New(3), 2)
	// Average distance from a quarter of sources should be close.
	if math.Abs(exact.AvgDistance()-sampled.AvgDistance()) > 0.15*exact.AvgDistance() {
		t.Errorf("APD exact %v vs sampled %v", exact.AvgDistance(), sampled.AvgDistance())
	}
	// Total pair mass approximately preserved by scaling.
	if math.Abs(exact.ConnectedPairs()-sampled.ConnectedPairs()) > 0.1*exact.ConnectedPairs() {
		t.Errorf("connected pairs exact %v vs sampled %v", exact.ConnectedPairs(), sampled.ConnectedPairs())
	}
}

func TestSampledFallsBackToExact(t *testing.T) {
	g := gen.ErdosRenyiGNM(randx.New(4), 50, 120)
	a := DistanceDistribution(g)
	b := NewScratch().SampledDistanceDistribution(g, 50, randx.New(5), 1)
	for d := range a.Counts {
		if a.Counts[d] != b.Counts[d] {
			t.Fatal("samples >= n should be exact")
		}
	}
}

func TestDistanceDistributionMatchesHandCount(t *testing.T) {
	// Star graph: center at distance 1 from k leaves; leaves pairwise 2.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	d := DistanceDistribution(g)
	if d.Counts[1] != 4 || d.Counts[2] != 6 {
		t.Errorf("star counts = %v, want [_, 4, 6]", d.Counts)
	}
	if got := d.AvgDistance(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("star APD = %v, want 1.6", got)
	}
}

// propertyCorpus builds the randomized-graph corpus of the bit-identity
// tests: >= 40 graphs spanning paths (deep, sparse levels), stars (one
// dense level), disconnected structures, scale-free graphs and
// Erdős–Rényi graphs.
func propertyCorpus(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	path := func(n int) *graph.Graph {
		edges := make([]graph.Edge, n-1)
		for i := range edges {
			edges[i] = graph.Edge{U: i, V: i + 1}
		}
		return graph.FromEdges(n, edges)
	}
	star := func(n int) *graph.Graph {
		edges := make([]graph.Edge, n-1)
		for i := range edges {
			edges[i] = graph.Edge{U: 0, V: i + 1}
		}
		return graph.FromEdges(n, edges)
	}
	for trial := 0; trial < 9; trial++ {
		seed := int64(1000 + trial)
		rng := randx.New(seed)
		n := 60 + trial*30
		gs = append(gs,
			path(n),
			star(n),
			// Disconnected: a sparse G(n, p) below the connectivity
			// threshold plus an isolated block of vertices.
			gen.ErdosRenyiGNP(rng, n+20, 0.8/float64(n)),
			gen.HolmeKim(randx.New(seed+50), n, 3, 0.3),
			gen.ErdosRenyiGNP(randx.New(seed+100), n, 4.0/float64(n)),
		)
	}
	// Degenerate and dense shapes.
	gs = append(gs,
		graph.FromEdges(1, nil),
		graph.FromEdges(5, nil),
		gen.ErdosRenyiGNP(randx.New(7), 40, 1), // complete graph
	)
	if len(gs) < 40 {
		tb.Fatalf("property corpus has %d graphs, want >= 40", len(gs))
	}
	return gs
}

// TestDistanceDistributionParallelBitIdentity pins distribution
// bit-identity across worker counts: exact and sampled, scratch and
// package level. Counts are float64 but integer-valued before scaling,
// so equality must be exact, not approximate. The corpus graphs fit in
// one source chunk; the trailing 1600-vertex graph spans four (two for
// its sampled scan), so its multi-worker scans run the per-worker merge
// under contention (make race).
func TestDistanceDistributionParallelBitIdentity(t *testing.T) {
	seq := NewScratch()
	par := NewScratch()
	corpus := append(propertyCorpus(t), gen.HolmeKim(randx.New(11), 1600, 3, 0.3))
	for gi, g := range corpus {
		n := g.NumVertices()
		wantExact := seq.DistanceDistribution(g, 1)
		wantCounts := append([]float64(nil), wantExact.Counts...)
		samples := n / 3
		var wantSampled []float64
		var wantSampledDisc float64
		if samples > 0 {
			ds := seq.SampledDistanceDistribution(g, samples, randx.New(int64(gi)), 1)
			wantSampled = append([]float64(nil), ds.Counts...)
			wantSampledDisc = ds.Disconnected
		}
		if pkg := DistanceDistribution(g); !reflect.DeepEqual(append([]float64(nil), pkg.Counts...), wantCounts) || pkg.Disconnected != wantExact.Disconnected {
			t.Fatalf("graph %d: package-level exact distribution diverges", gi)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := par.DistanceDistribution(g, workers)
			if !reflect.DeepEqual(append([]float64(nil), got.Counts...), wantCounts) || got.Disconnected != wantExact.Disconnected {
				t.Fatalf("graph %d workers %d: exact distribution diverges", gi, workers)
			}
			if samples > 0 {
				gs := par.SampledDistanceDistribution(g, samples, randx.New(int64(gi)), workers)
				if !reflect.DeepEqual(append([]float64(nil), gs.Counts...), wantSampled) || gs.Disconnected != wantSampledDisc {
					t.Fatalf("graph %d workers %d: sampled distribution diverges", gi, workers)
				}
			}
		}
	}
}

// TestSampleSourcesDrawOrder pins the partial-Fisher–Yates draw order
// introduced in PR 7 (the seed-visible replacement for
// rng.Perm(n)[:samples]): the exact sources, and that they are
// distinct, in range, and cost exactly `samples` Intn draws.
func TestSampleSourcesDrawOrder(t *testing.T) {
	got := sampleSources(randx.New(123), 100, 10)
	want := []int32{35, 1, 17, 56, 87, 54, 19, 62, 53, 94}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sampleSources(seed 123, n=100, k=10) = %v, want %v", got, want)
	}
	// Stream-length pin: after k draws of sampleSources, the generator
	// must be exactly where k Intn calls leave it — the property that
	// makes the draw count (not just the order) part of the contract.
	rngA := randx.New(456)
	sampleSources(rngA, 1000, 25)
	rngB := randx.New(456)
	for i := 0; i < 25; i++ {
		rngB.Intn(1000 - i)
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		t.Errorf("sampleSources consumed a different stream length: next draws %d vs %d", a, b)
	}
	// Distinctness and range over many seeds.
	for seed := int64(0); seed < 20; seed++ {
		n, k := 50, 20
		srcs := sampleSources(randx.New(seed), n, k)
		seen := make(map[int32]bool, k)
		for _, v := range srcs {
			if v < 0 || int(v) >= n {
				t.Fatalf("seed %d: source %d out of range [0,%d)", seed, v, n)
			}
			if seen[v] {
				t.Fatalf("seed %d: duplicate source %d", seed, v)
			}
			seen[v] = true
		}
	}
}
