package query

import (
	"context"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// chainGraph builds an uncertain path 0 -p- 1 -p- 2 ... with uniform
// edge probability p.
func chainGraph(t testing.TB, n int, p float64) *uncertain.Graph {
	pairs := make([]uncertain.Pair, 0, n-1)
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, uncertain.Pair{U: i, V: i + 1, P: p})
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReliabilityChain(t *testing.T) {
	// Pr(0 ~ 2) on a 3-chain = p^2.
	p := 0.7
	e := &Engine{G: chainGraph(t, 3, p), Worlds: 40000, Rng: randx.New(1)}
	got := e.Reliability(0, 2)
	want := p * p
	if math.Abs(got-want) > 0.01 {
		t.Errorf("reliability = %v, want %v", got, want)
	}
	if e.Reliability(1, 1) != 1 {
		t.Error("self reliability must be 1")
	}
}

func TestReliabilityWithAlternativePath(t *testing.T) {
	// Triangle with all p=0.5: Pr(0~1) = p + (1-p)*p^2 = 0.625.
	g, err := uncertain.New(3, []uncertain.Pair{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{G: g, Worlds: 60000, Rng: randx.New(2)}
	if got := e.Reliability(0, 1); math.Abs(got-0.625) > 0.01 {
		t.Errorf("reliability = %v, want 0.625", got)
	}
}

func TestDistanceDistributionChain(t *testing.T) {
	// 0 to 2 on a 3-chain with p=0.8: dist 2 w.p. 0.64, else disconnected.
	e := &Engine{G: chainGraph(t, 3, 0.8), Worlds: 40000, Rng: randx.New(3)}
	dist, disc := e.DistanceDistribution(0, 2)
	if math.Abs(dist[2]-0.64) > 0.01 {
		t.Errorf("P(d=2) = %v, want 0.64", dist[2])
	}
	if math.Abs(disc-0.36) > 0.01 {
		t.Errorf("P(disconnected) = %v, want 0.36", disc)
	}
	var total float64
	for _, p := range dist {
		total += p
	}
	if math.Abs(total+disc-1) > 1e-9 {
		t.Error("distribution must sum to 1")
	}
}

func TestMedianDistance(t *testing.T) {
	// High-probability chain: median = exact distance.
	e := &Engine{G: chainGraph(t, 5, 0.95), Worlds: 2000, Rng: randx.New(4)}
	if got := e.MedianDistance(0, 3); got != 3 {
		t.Errorf("median distance = %d, want 3", got)
	}
	// Low-probability chain: median is disconnection.
	e2 := &Engine{G: chainGraph(t, 5, 0.2), Worlds: 2000, Rng: randx.New(5)}
	if got := e2.MedianDistance(0, 4); got != -1 {
		t.Errorf("median distance = %d, want -1 (disconnected)", got)
	}
}

func TestKNearestDeterministicStructure(t *testing.T) {
	// Star with strong spokes to 1,2 and weak to 3: nearest two are 1,2.
	g, err := uncertain.New(5, []uncertain.Pair{
		{U: 0, V: 1, P: 0.99},
		{U: 0, V: 2, P: 0.99},
		{U: 0, V: 3, P: 0.05},
		{U: 3, V: 4, P: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{G: g, Worlds: 3000, Rng: randx.New(6)}
	got := e.KNearest(0, 2)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("KNearest = %v, want [1 2]", got)
	}
	// Asking for more neighbours than reachable returns what exists.
	all := e.KNearest(0, 10)
	if len(all) > 4 {
		t.Errorf("KNearest returned %d candidates", len(all))
	}
}

func TestExpectedDegreeExact(t *testing.T) {
	e := &Engine{G: chainGraph(t, 3, 0.5)}
	if got := e.ExpectedDegree(1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("E[deg] = %v, want 1", got)
	}
}

func TestDefaultWorldsIsHoeffding(t *testing.T) {
	e := &Engine{G: chainGraph(t, 3, 0.5)}
	if got := e.worlds(); got != 738 {
		t.Errorf("default worlds = %d, want 738 (Hoeffding 0.05/0.05)", got)
	}
}

func TestReliabilityCertainEdges(t *testing.T) {
	// Probability-one and probability-zero pairs make reliability
	// deterministic: the estimate must be exactly 1 or 0.
	g, err := uncertain.New(4, []uncertain.Pair{
		{U: 0, V: 1, P: 1}, {U: 2, V: 3, P: 1}, {U: 1, V: 2, P: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{G: g, Worlds: 50}
	if got := e.Reliability(0, 1); got != 1 {
		t.Errorf("Pr(0~1) = %v, want 1", got)
	}
	if got := e.Reliability(0, 2); got != 0 {
		t.Errorf("Pr(0~2) = %v, want 0", got)
	}
}

// TestEngineDerivedStreamsDecorrelate pins the fix for the seed-reuse
// bug: with Rng == nil the engine used to rebuild rand.New(NewSource(1))
// on every call, so successive queries replayed identical worlds. Now
// each call derives its own stream from the fixed engine seed, and two
// engines with the same seed still agree call-for-call.
func TestEngineDerivedStreamsDecorrelate(t *testing.T) {
	g := chainGraph(t, 3, 0.5)
	e1 := &Engine{G: g, Worlds: 200}
	e2 := &Engine{G: g, Worlds: 200}
	first := e1.Reliability(0, 2)
	second := e1.Reliability(0, 2)
	if first == second {
		t.Errorf("successive queries replayed identical worlds: both %v", first)
	}
	if got := e2.Reliability(0, 2); got != first {
		t.Errorf("call #0 differs across same-seed engines: %v vs %v", got, first)
	}
	if got := e2.Reliability(0, 2); got != second {
		t.Errorf("call #1 differs across same-seed engines: %v vs %v", got, second)
	}
	// A different engine seed selects different streams.
	e3 := &Engine{G: g, Worlds: 200, Seed: 99}
	if got := e3.Reliability(0, 2); got == first {
		t.Log("seed 99 call #0 coincided with seed 0; tolerated (same estimator)")
	}
}

// TestEngineExplicitRngReplayable pins the explicit-Rng contract: each
// query draws one seed from the caller's generator, so resetting the
// generator replays the whole query sequence.
func TestEngineExplicitRngReplayable(t *testing.T) {
	g := chainGraph(t, 4, 0.6)
	run := func() []float64 {
		e := &Engine{G: g, Worlds: 300, Rng: randx.New(7)}
		return []float64{e.Reliability(0, 3), e.Reliability(0, 3), e.Reliability(1, 3)}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("explicit-Rng runs differ: %v vs %v", a, b)
	}
}

// TestEngineZeroAllocSteadyState is the query-side companion of
// uncertain's TestSamplerZeroAllocs: once the engine's batch, sampler
// and BFS scratch have warmed up, a scalar query performs zero heap
// allocations — reliability no longer allocates a fresh seen/stack per
// sampled world.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := &Engine{G: chainGraph(t, 30, 0.5), Worlds: 40, Workers: 1}
	e.Reliability(0, 29) // warm up buffers
	allocs := testing.AllocsPerRun(20, func() {
		e.Reliability(0, 29)
	})
	if allocs != 0 {
		t.Errorf("steady-state Reliability allocates %v times per query, want 0", allocs)
	}
	id := -1
	b := NewBatch(e.G, Config{Worlds: 40, Workers: 1})
	id = b.AddReliability(0, 29)
	b.AddDistance(0, 15)
	b.AddKNearest(0, 5)
	ctx := context.Background()
	if err := b.Run(ctx); err != nil { // warm up batch buffers
		t.Fatal(err)
	}
	seed := int64(1)
	allocs = testing.AllocsPerRun(20, func() {
		b.Seed = seed
		if err := b.Run(ctx); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs != 0 {
		t.Errorf("steady-state batch Run allocates %v times, want 0", allocs)
	}
	_ = b.Reliability(id)
}
