package adversary

import (
	"math"
	"slices"
	"sync"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// checkFixture is a random release and a property assignment to check
// it against.
type checkFixture struct {
	name   string
	g      *uncertain.Graph
	values []int
}

// checkFixtures draws releases whose degree laws are exact and CLT at
// thresholds 4 and 30, with probabilities 0 and 1 among the random
// ones, three isolated vertices, and assignments holding negative
// values. A hub fixture has a vertex whose pair count is above every
// value; the others hold values above every pair count, so those
// columns have no contributors. The 1300- and 1500-vertex fixtures
// span three scan chunks.
func checkFixtures(t *testing.T) []checkFixture {
	t.Helper()
	shapes := []struct {
		name string
		n, m int
		hub  bool
	}{
		{"n40-hub", 40, 2, true},
		{"n700", 700, 3, false},
		{"n1300-hub", 1300, 3, true},
		{"n1500", 1500, 4, false},
	}
	var out []checkFixture
	for i, shape := range shapes {
		rng := randx.New(int64(70 + i))
		live := shape.n - 3
		g := gen.HolmeKim(rng, live, shape.m, 0.3)
		deg := g.Degrees()
		values := make([]int, shape.n)
		maxValue := 0
		for v := range values {
			if v < live {
				values[v] = deg[v] + rng.Intn(5) - 2
			} else {
				values[v] = v % 3
			}
			maxValue = max(maxValue, values[v])
		}
		values[1], values[2] = -1, -4
		if !shape.hub {
			values[3], values[4] = maxValue+40, maxValue+60
		}

		seen := make(map[int64]bool)
		var pairs []uncertain.Pair
		add := func(u, v int) {
			key := graph.PairKey(u, v, shape.n)
			if u == v || seen[key] {
				return
			}
			seen[key] = true
			p := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				p = 0
			case 1:
				p = 1
			}
			pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
		}
		g.ForEachEdge(add)
		for j := 0; j < live/2; j++ {
			add(rng.Intn(live), rng.Intn(live))
		}
		if shape.hub {
			for v := 1; v < live && v <= maxValue+10; v++ {
				add(0, v)
			}
		}
		ug, err := uncertain.New(shape.n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		maxCount := 0
		for v := 0; v < shape.n; v++ {
			maxCount = max(maxCount, ug.IncidentCount(v))
		}
		if shape.hub != (maxCount > slices.Max(values)) {
			t.Fatalf("%s: the largest pair count %d does not give the fixture its shape", shape.name, maxCount)
		}
		if ug.IncidentCount(shape.n-1) != 0 {
			t.Fatalf("%s lost its isolated vertices", shape.name)
		}
		out = append(out, checkFixture{name: shape.name, g: ug, values: values})
	}
	return out
}

// TestStagedCheckMatchesFullScan pins the staged (k, ε) check against
// one full fold over every column with a fresh law per vertex
// (referenceColumns): the verdict always equals !(ε' > ε) for the full
// ε'; a passing check returns that ε' bit for bit; every column a check
// classifies, through any stage, has the reference's entropy bit for
// bit; NotObfuscatedFraction is the full ε' and IsKEpsObfuscation keeps
// its ε' <= ε+1e-12 rule. It runs the uncertain path (vertex skip, kept
// laws, shared erfc endpoints) and the generic path at one and three
// workers. k = 3 is in the grid because on the 700-vertex fixture at
// ε = 0.01 it makes checks fail after their second stage.
func TestStagedCheckMatchesFullScan(t *testing.T) {
	fixtures := checkFixtures(t)
	if testing.Short() {
		fixtures = fixtures[:3]
	}
	epsGrid := []float64{-0.1, 0, 0.01, 0.3, 0.999, math.Inf(1)}
	// ends counts, per schedule length, the stage each check ended
	// after (0-based) and whether it passed.
	type end struct {
		stages, last int
		ok           bool
	}
	ends := map[end]int{}
	for _, fx := range fixtures {
		a := NewAssignment(fx.values)
		for _, threshold := range []int{0, 4, 30} {
			want, _ := referenceColumns(fx.g, threshold, a.cols)
			for _, k := range []float64{1, 2, 3, 20} {
				limit := math.Log2(k) - 1e-12
				bad := 0
				for _, val := range fx.values {
					if want[val] < limit {
						bad++
					}
				}
				full := float64(bad) / float64(len(fx.values))
				for _, workers := range []int{1, 3} {
					um := UncertainModel{G: fx.g, ExactThreshold: threshold, Workers: workers}
					for name, m := range map[string]Model{"uncertain": um, "generic": plainModel{um}} {
						where := fx.name + " " + name
						if got := NotObfuscatedFraction(m, fx.values, k); math.Float64bits(got) != math.Float64bits(full) {
							t.Errorf("%s threshold=%d k=%v workers=%d: NotObfuscatedFraction %v, full scan %v",
								where, threshold, k, workers, got, full)
						}
						if IsKEpsObfuscation(m, fx.values, k, math.NaN()) {
							t.Errorf("%s threshold=%d k=%v workers=%d: a NaN eps passes IsKEpsObfuscation", where, threshold, k, workers)
						}
						for _, eps := range epsGrid {
							ents := make([]float64, len(a.cols))
							for i := range ents {
								ents[i] = math.NaN()
							}
							_, ok := a.check(m, k, eps, ents)
							epsPrime, checkOK := a.Check(m, k, eps)
							wantOK := !(full > eps)
							if ok != wantOK || checkOK != wantOK {
								t.Errorf("%s threshold=%d k=%v eps=%v workers=%d: verdict %v, full scan ε'=%v",
									where, threshold, k, eps, workers, checkOK, full)
							}
							if checkOK && math.Float64bits(epsPrime) != math.Float64bits(full) {
								t.Errorf("%s threshold=%d k=%v eps=%v workers=%d: passing ε' %v, full scan %v",
									where, threshold, k, eps, workers, epsPrime, full)
							}
							for i, h := range ents {
								switch {
								case math.IsNaN(h) && ok:
									t.Errorf("%s threshold=%d k=%v eps=%v: a passing check left ω=%d unclassified",
										where, threshold, k, eps, a.cols[i])
								case !math.IsNaN(h) && math.Float64bits(h) != math.Float64bits(want[a.cols[i]]):
									t.Errorf("%s threshold=%d k=%v eps=%v workers=%d ω=%d: entropy %v, full scan %v",
										where, threshold, k, eps, workers, a.cols[i], h, want[a.cols[i]])
								}
							}
							if got := IsKEpsObfuscation(m, fx.values, k, eps); got != (full <= eps+1e-12) {
								t.Errorf("%s threshold=%d k=%v eps=%v workers=%d: IsKEpsObfuscation %v with ε'=%v",
									where, threshold, k, eps, workers, got, full)
							}
							cuts, stages := a.stageCuts(eps)
							last := 0
							for s := range stages {
								if !math.IsNaN(ents[cuts[s]]) {
									last = s
								}
							}
							ends[end{stages, last, ok}]++
						}
					}
				}
			}
		}
	}
	// Checks must fail after each stage, pass through all three, and
	// run as one stage.
	for _, e := range []end{{3, 0, false}, {3, 1, false}, {3, 2, true}, {1, 0, true}} {
		if ends[e] == 0 {
			t.Errorf("no check of %d stages ended after stage %d with ok=%v; ends: %v", e.stages, e.last+1, e.ok, ends)
		}
	}
}

// TestStageCuts pins the fixed schedule: with b the least count whose
// fraction exceeds ε, stage 1 takes the highest columns until they
// hold b vertices, stage 2 the next ones until they hold 2b more, and
// stage 3 the rest.
func TestStageCuts(t *testing.T) {
	// 100 vertices over columns 0..9 holding 40, 20, 10, 10, 5, 5, 4,
	// 3, 2 and 1 vertices.
	var values []int
	for col, count := range []int{40, 20, 10, 10, 5, 5, 4, 3, 2, 1} {
		for range count {
			values = append(values, col)
		}
	}
	a := NewAssignment(values)
	for _, tc := range []struct {
		eps    float64
		cuts   []int
		reason string
	}{
		{0.01, []int{8, 6, 0}, "b=2: {9,8} hold 3, then {7,6} hold 7 >= 4"},
		{0.02, []int{8, 6, 0}, "b=3: {9,8} hold 3, then {7,6} hold 7 >= 6"},
		{-0.1, []int{9, 8, 0}, "b=1: {9}, then {8} holds 2 >= 2"},
		{0, []int{9, 8, 0}, "b=1 for ε=0 as well"},
		{0.3, []int{2, 0}, "b=31: {9..2} hold 40, then {1,0} hold 60 < 62, all that is left"},
		{0.6, []int{0}, "b=61 takes every column"},
		{1, []int{0}, "no count exceeds ε=1"},
		{math.Inf(1), []int{0}, "no count exceeds +Inf"},
		{math.NaN(), []int{0}, "no count exceeds NaN"},
	} {
		cuts, stages := a.stageCuts(tc.eps)
		if got := cuts[:stages]; !slices.Equal(got, tc.cuts) {
			t.Errorf("eps=%v: cuts %v, want %v (%s)", tc.eps, got, tc.cuts, tc.reason)
		}
	}
	if eps, ok := NewAssignment(nil).Check(UncertainModel{G: figure1b(t)}, 3, 0); eps != 0 || !ok {
		t.Errorf("empty assignment: Check = %v, %v, want 0, true", eps, ok)
	}
}

// TestCheckReusesScratch pins that a prepared assignment's checks
// allocate nothing per vertex: once its pooled scratch is warm, a
// staged check over a 1300-vertex release allocates a bounded number of
// times, a small multiple of its stages and chunks.
func TestCheckReusesScratch(t *testing.T) {
	fx := checkFixtures(t)[2]
	a := NewAssignment(fx.values)
	m := UncertainModel{G: fx.g, ExactThreshold: 30, Workers: 1}
	if _, stages := a.stageCuts(0.3); stages != 3 {
		t.Fatalf("the fixture checks in %d stages at ε=0.3, want 3", stages)
	}
	a.Check(m, 2, 0.3)
	allocs := testing.AllocsPerRun(5, func() { a.Check(m, 2, 0.3) })
	// Each stage allocates a few slices and closures, and one
	// accumulator slice per chunk: 31 times over 3 stages and 3 chunks
	// when written. A law or table allocated per scanned vertex would
	// add hundreds.
	if limit := 48.0; allocs > limit {
		t.Errorf("a warm check allocates %v times, want at most %v", allocs, limit)
	}
}

// TestConcurrentChecksShareAssignment runs checks of one prepared
// assignment from several goroutines at once, as a probe's concurrent
// trials do: each check takes its own scratch from the pool, so every
// result equals the same check run alone.
func TestConcurrentChecksShareAssignment(t *testing.T) {
	fx := checkFixtures(t)[1]
	a := NewAssignment(fx.values)
	type result struct {
		eps float64
		ok  bool
	}
	cases := []struct{ k, eps float64 }{{2, 0.01}, {20, 0.3}, {20, 0.01}, {2, 0.3}}
	want := make([]result, len(cases))
	for i, c := range cases {
		m := UncertainModel{G: fx.g, Workers: 2}
		want[i].eps, want[i].ok = a.Check(m, c.k, c.eps)
	}
	got := make([]result, len(cases)*8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cases[i%len(cases)]
			m := UncertainModel{G: fx.g, Workers: 2}
			got[i].eps, got[i].ok = a.Check(m, c.k, c.eps)
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if w := want[i%len(cases)]; r.ok != w.ok || math.Float64bits(r.eps) != math.Float64bits(w.eps) {
			t.Errorf("concurrent check %d: %v, %v; alone %v, %v", i, r.eps, r.ok, w.eps, w.ok)
		}
	}
}
