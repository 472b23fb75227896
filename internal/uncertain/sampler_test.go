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
	fixtures := map[string]*Graph{
		"edge-case probabilities":    edgy,
		"mixed fixture":              samplerFixture(t, 30),
		"coin tie":                   tie,
		"runs broken at cycle edges": runsFixture(t),
	}
	for name, g := range fixtures {
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

// runsFixture builds a graph whose pairs that draw no coin (p = 0 or
// p = 1) break the runs of coin-drawing pairs at the first pair, at the
// last pair, and where the stream reaches a half-cycle edge of the
// generator: after 333, 334, 607, 608 and 941 coins, with a run of
// three constant pairs at 334.
func runsFixture(t *testing.T) *Graph {
	t.Helper()
	breaks := map[int]int{333: 1, 334: 3, 607: 1, 608: 1, 941: 1}
	rng := randx.New(13)
	const n = 60
	pairs := []Pair{{U: 0, V: 1, P: 0}}
	coins := 0
	for u := 0; u < n && coins < 1300; u++ {
		for v := u + 1; v < n && coins < 1300; v++ {
			if u == 0 && v == 1 {
				continue
			}
			p := rng.Float64()
			if k := breaks[coins]; k > 0 {
				breaks[coins]--
				p = float64(k % 2) // alternate 1 and 0
			} else {
				coins++
			}
			pairs = append(pairs, Pair{U: u, V: v, P: p})
		}
	}
	pairs[len(pairs)-1].P = 1
	g, err := New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Runs of 333, 1, 273, 1, 333 and 358 coins.
	if runs := g.NewSampler().runs; len(runs) != 6 {
		t.Fatalf("fixture has %d runs of coin-drawing pairs, want 6: %v", len(runs), runs)
	}
	return g
}

// TestNewSamplerAllocs pins the template build's allocation count to a
// constant: the sampler, its slot, threshold and presence arrays, the
// run list and one cursor array, however many vertices there are.
func TestNewSamplerAllocs(t *testing.T) {
	for _, n := range []int{30, 600} {
		pairs := make([]Pair, 0, 2*n)
		for v := 0; v < n; v++ {
			pairs = append(pairs, Pair{U: v, V: (v + 1) % n, P: 0.5}, Pair{U: v, V: (v + 7) % n, P: 0.25})
		}
		g, err := New(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { g.NewSampler() }); allocs != 7 {
			t.Errorf("%d vertices: NewSampler allocates %v times, want 7", n, allocs)
		}
	}
}

// TestSampleGroupMatchesSampleSeed pins the packed draw: bit j of
// every mask is exactly the presence SampleSeed(seeds[j]) draws for the
// pair, every bit at or above the width is zero, and neither holds
// after a wider group or a materialized world on the same sampler. The
// pair counts straddle the 64-pair word: below, at, and well past it.
func TestSampleGroupMatchesSampleSeed(t *testing.T) {
	path := func(pairs int) *Graph {
		ps := make([]Pair, pairs)
		for i := range ps {
			ps[i] = Pair{U: i, V: i + 1, P: []float64{0, 1, 0.3, 0.9}[i%4]}
		}
		g, err := New(pairs+1, ps)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seeds := make([]int64, 64)
	randx.FillWorldSeeds(seeds, randx.New(11))
	for name, g := range map[string]*Graph{"1 pair": path(1), "64 pairs": path(64), "mixed fixture": samplerFixture(t, 30)} {
		s, ref := g.NewSampler(), g.NewSampler()
		for _, width := range []int{64, 7, 1, 63, 64, 33} {
			if width == 33 {
				s.SampleSeed(5) // a materialized world must not leak into the masks
			}
			pw := s.SampleGroup(seeds[:width])
			if pw.Width != width || len(pw.Masks) != g.NumPairs() {
				t.Fatalf("%s: width %d, %d masks; want %d and %d", name, pw.Width, len(pw.Masks), width, g.NumPairs())
			}
			for j, seed := range seeds[:width] {
				ref.SampleSeed(seed)
				for p, m := range pw.Masks {
					if got := m>>j&1 == 1; got != ref.present[p] {
						t.Fatalf("%s, width %d: pair %d in world %d is %v, SampleSeed drew %v", name, width, p, j, got, ref.present[p])
					}
				}
			}
			for p, m := range pw.Masks {
				if width < 64 && m>>width != 0 {
					t.Fatalf("%s, width %d: pair %d has bits above the width: %#x", name, width, p, m)
				}
			}
		}
	}
}

// TestSamplerZeroAllocs pins the acceptance criterion: after the
// sampler is constructed (the warm-up), the steady-state per-world
// loop — reseed, sample — performs zero heap allocations, on every
// draw path.
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
	seeds := make([]int64, 64)
	allocs = testing.AllocsPerRun(20, func() {
		seeds[0] = seed
		s.SampleGroup(seeds)
		seed++
	})
	if allocs != 0 {
		t.Errorf("steady-state SampleGroup allocates %v times per group, want 0", allocs)
	}
}
