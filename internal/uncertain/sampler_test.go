package uncertain

import (
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

// samplerFixture builds an uncertain graph mixing certain edges
// (p = 1), impossible pairs (p = 0) and genuinely random pairs.
func samplerFixture(t testing.TB, n int) *Graph {
	t.Helper()
	rng := randx.New(99)
	var pairs []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch rng.Intn(5) {
			case 0:
				pairs = append(pairs, Pair{U: u, V: v, P: 1})
			case 1:
				pairs = append(pairs, Pair{U: u, V: v, P: 0})
			case 2, 3:
				pairs = append(pairs, Pair{U: v, V: u, P: rng.Float64()})
			}
		}
	}
	g, err := New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSamplerMatchesSampleWorld pins the bit-identity contract: for
// equal RNG states, Sampler.Sample and the pre-refactor builder-based
// materialization (one Float64 draw per candidate pair with
// 0 < p < 1, in candidate-list order, dropped into a graph.Builder)
// must consume the same draws and produce the same graph.
func TestSamplerMatchesSampleWorld(t *testing.T) {
	g := samplerFixture(t, 30)
	s := g.NewSampler()
	for seed := int64(1); seed <= 20; seed++ {
		world := s.Sample(randx.New(seed))
		if err := world.Validate(); err != nil {
			t.Fatalf("seed %d: invalid world: %v", seed, err)
		}
		// Reference: the seed's SampleWorld implementation, verbatim.
		rng := randx.New(seed)
		b := graph.NewBuilder(g.n)
		for _, pr := range g.Pairs() {
			if pr.P > 0 && (pr.P >= 1 || rng.Float64() < pr.P) {
				b.AddEdge(pr.U, pr.V)
			}
		}
		ref := b.Build()
		if world.NumEdges() != ref.NumEdges() {
			t.Fatalf("seed %d: %d edges, reference %d", seed, world.NumEdges(), ref.NumEdges())
		}
		if !reflect.DeepEqual(world.Edges(), ref.Edges()) {
			t.Fatalf("seed %d: edge sets differ", seed)
		}
	}
}

// TestSamplerWorldReuse checks that consecutive samples reuse the same
// backing graph and stay internally consistent.
func TestSamplerWorldReuse(t *testing.T) {
	g := samplerFixture(t, 25)
	s := g.NewSampler()
	rng := randx.New(5)
	w1 := s.Sample(rng)
	w2 := s.Sample(rng)
	if w1 != w2 {
		t.Error("Sample should return the same reused *graph.Graph")
	}
	if err := w2.Validate(); err != nil {
		t.Fatalf("reused world invalid: %v", err)
	}
}

// TestSampleWorldIndependentOfSampler checks the one-shot path still
// yields a graph that survives further sampler activity (it owns the
// buffers of its throwaway sampler).
func TestSampleWorldIndependentOfSampler(t *testing.T) {
	g := samplerFixture(t, 25)
	w := g.SampleWorld(randx.New(3))
	before := w.NumEdges()
	// Unrelated sampling must not disturb w.
	g.SampleWorld(randx.New(4))
	g.NewSampler().Sample(randx.New(5))
	if w.NumEdges() != before {
		t.Error("SampleWorld graph mutated by later sampling")
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("one-shot world invalid: %v", err)
	}
}

// TestSamplerCloneSamplesIdenticalWorlds pins the Clone contract: a
// clone shares the immutable template, owns its own world buffers, and
// draws exactly the same worlds from equal RNG states — the property
// the batched query engine relies on when it builds one template and
// clones it per worker.
func TestSamplerCloneSamplesIdenticalWorlds(t *testing.T) {
	g := samplerFixture(t, 50)
	orig := g.NewSampler()
	clone := orig.Clone()
	if clone.Graph() != g {
		t.Fatal("clone lost its graph")
	}
	for seed := int64(0); seed < 20; seed++ {
		wo := orig.Sample(randx.New(seed))
		wc := clone.Sample(randx.New(seed))
		// Both worlds stay alive across each other's Sample calls:
		// buffers are not shared.
		if wo.NumEdges() != wc.NumEdges() {
			t.Fatalf("seed %d: edge counts %d vs %d", seed, wo.NumEdges(), wc.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			no, nc := wo.Neighbors(v), wc.Neighbors(v)
			if len(no) != len(nc) {
				t.Fatalf("seed %d: vertex %d degree %d vs %d", seed, v, len(no), len(nc))
			}
			for i := range no {
				if no[i] != nc[i] {
					t.Fatalf("seed %d: vertex %d adjacency differs", seed, v)
				}
			}
		}
	}
}

// TestSampleSeedMatchesSample pins the devirtualized draw path:
// SampleSeed(seed) must produce exactly the world Sample draws from
// randx.New(seed), on graphs whose probabilities include the edge
// cases of the coin test p > 0 && (p >= 1 || u < p) — impossible and
// certain pairs, subnormal probabilities, the largest float64 below 1
// and a probability equal to its coin — and when the two paths
// alternate on one sampler.
func TestSampleSeedMatchesSample(t *testing.T) {
	edgeCases := []float64{0, 1, math.SmallestNonzeroFloat64, 0x1p-1060, 1 - 0x1p-53, 0.5}
	rng := randx.New(7)
	var pairs []Pair
	const n = 40
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				continue
			}
			p := rng.Float64()
			if rng.Intn(2) == 0 {
				p = edgeCases[rng.Intn(len(edgeCases))]
			}
			pairs = append(pairs, Pair{U: u, V: v, P: p})
		}
	}
	edgy, err := New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 89482311, math.MinInt64, math.MaxInt64}
	for s := int64(2); s < 200; s++ {
		seeds = append(seeds, s*2654435761)
	}
	// A pair whose probability equals the coin seed 12345 draws for it
	// exactly: the strict u < p test must leave it out.
	tieSeed := int64(12345)
	tie, err := New(2, []Pair{{U: 0, V: 1, P: randx.New(tieSeed).Float64()}})
	if err != nil {
		t.Fatal(err)
	}
	if w := tie.NewSampler().SampleSeed(tieSeed); w.NumEdges() != 0 {
		t.Fatalf("a pair whose p equals its coin was drawn present")
	}
	seeds = append(seeds, tieSeed)
	for name, g := range map[string]*Graph{"edge-case probabilities": edgy, "mixed fixture": samplerFixture(t, 30), "coin tie": tie} {
		viaSeed, viaRand := g.NewSampler(), g.NewSampler()
		for i, seed := range seeds {
			var got *graph.Graph
			if i%2 == 0 {
				got = viaSeed.SampleSeed(seed)
			} else {
				// Alternate paths on one sampler: SampleSeed must not
				// depend on what the previous call left in the buffers.
				viaSeed.Sample(randx.New(seed + 1))
				got = viaSeed.SampleSeed(seed)
			}
			want := viaRand.Sample(randx.New(seed))
			if got.NumEdges() != want.NumEdges() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("%s, seed %d: SampleSeed drew %d edges, Sample(randx.New) %d, or the edge sets differ",
					name, seed, got.NumEdges(), want.NumEdges())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s, seed %d: invalid world: %v", name, seed, err)
			}
		}
	}
}

// TestSamplerZeroAllocs pins the acceptance criterion: after the
// sampler is constructed (the warm-up), the steady-state per-world
// loop — reseed, sample — performs zero heap allocations, on both
// draw paths.
func TestSamplerZeroAllocs(t *testing.T) {
	g := samplerFixture(t, 60)
	s := g.NewSampler()
	rng := randx.New(0)
	seed := int64(1)
	allocs := testing.AllocsPerRun(50, func() {
		rng.Seed(seed)
		s.Sample(rng)
		seed++
	})
	if allocs != 0 {
		t.Errorf("steady-state Sample allocates %v times per world, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		s.SampleSeed(seed)
		seed++
	})
	if allocs != 0 {
		t.Errorf("steady-state SampleSeed allocates %v times per world, want 0", allocs)
	}
}
