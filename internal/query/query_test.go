package query

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// The answer checks below compare Batch estimates with the exact law
// of the possible-world model, enumerated over all 2^m worlds of a
// small fixture. Each estimated probability — Pr(s~t), every
// Pr(dist = d) and Pr(disconnected) — is an indicator mean over r
// independent worlds, so by Hoeffding it lies within
// ε = √(ln(2/δ)/(2r)) of the exact value with probability ≥ 1−δ.
// Seeds are fixed, so each check is deterministic; a failure means the
// estimator, not the draw, is off.

// hoeffdingDelta is the failure probability one oracle assertion
// allows.
const hoeffdingDelta = 1e-6

// maxOraclePairs bounds the fixtures the oracle enumerates.
const maxOraclePairs = 12

func hoeffdingEps(r int) float64 {
	return math.Sqrt(math.Log(2/hoeffdingDelta) / (2 * float64(r)))
}

// exactLaws enumerates every possible world of g and returns the exact
// law of dist(s, v) for every vertex v: law[v][d] = Pr(dist(s,v) = d)
// and disc[v] = Pr(s and v disconnected).
func exactLaws(tb testing.TB, g *uncertain.Graph, s int) (law [][]float64, disc []float64) {
	tb.Helper()
	pairs := g.Pairs()
	if len(pairs) > maxOraclePairs {
		tb.Fatalf("oracle fixture has %d pairs, want <= %d", len(pairs), maxOraclePairs)
	}
	n := g.NumVertices()
	law = make([][]float64, n)
	for v := range law {
		law[v] = make([]float64, n) // a world distance is at most n-1
	}
	disc = make([]float64, n)
	edges := make([]graph.Edge, 0, len(pairs))
	for mask := 0; mask < 1<<len(pairs); mask++ {
		w := 1.0
		edges = edges[:0]
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				w *= p.P
				edges = append(edges, graph.Edge{U: p.U, V: p.V})
			} else {
				w *= 1 - p.P
			}
		}
		if w == 0 {
			continue
		}
		for v, d := range bfs.FromSource(graph.FromEdges(n, edges), s) {
			if d < 0 {
				disc[v] += w
			} else {
				law[v][d] += w
			}
		}
	}
	return law, disc
}

// oracleStats records how close the estimates came to the Hoeffding
// radius: the largest |estimate − exact| / ε over every assertion, for
// the reliability and distance queries and, separately, for the cells
// of the k-NN histograms.
type oracleStats struct {
	checks, knnChecks     int
	maxRatio, knnMaxRatio float64
	// medians counts the (s, v) medians r worlds decide and checks;
	// medianSkips those too close to 1/2 to assert. rankings counts the
	// sources whose whole k-NN ranking is checked; rankingSkips those
	// with an undecided median.
	medians, medianSkips   int
	rankings, rankingSkips int
}

// exactMedian returns the count-rule median of a distance law — the
// smallest d with Pr(dist <= d) >= 1/2, or -1 when the disconnection
// bucket, sorted last, holds it — and whether r worlds decide it: the
// exact CDF must clear 1/2 by more than ε just below the median and by
// more than ε + 1/(2r) at it. Then every empirical CDF within ε of the
// exact one stays under 1/2 below the median and reaches ⌈r/2⌉ worlds
// at it, so the count rule lands on the exact median.
func exactMedian(law []float64, eps float64, r int) (median int, decided bool) {
	below := 0.0
	for d, p := range law {
		at := below + p
		if at >= 0.5 {
			return d, 0.5-below > eps && at-0.5 > eps+1/(2*float64(r))
		}
		below = at
	}
	return -1, 0.5-below > eps
}

// checkOracle runs one batch of r worlds carrying a reliability and a
// distance query from each source to every other vertex, plus one k-NN
// query per source, and asserts every estimated probability against
// the exact law: Pr(s~t), each Pr(dist = d) and Pr(disconnected), and
// every cell knnHist[d·n+v]/r of each source's k-NN histogram against
// Pr(dist(s,v) = d), with the share of worlds in which no cell counts
// v against Pr(s and v disconnected). Where r worlds decide the exact
// median of dist(s, v) (see exactMedian), MedianDistance and the median
// the k-NN query reports for v must equal it; where they decide every
// median of a source, its k-NN ranking must equal the exact one.
func checkOracle(t *testing.T, name string, g *uncertain.Graph, sources []int, r int, seed int64, st *oracleStats) {
	t.Helper()
	type query struct{ s, v, rel, dist int }
	n := g.NumVertices()
	b := NewBatch(g, Config{Worlds: r, Seed: seed})
	var qs []query
	knnIDs := make(map[int]int, len(sources))
	for _, s := range sources {
		knnIDs[s] = b.AddKNearest(s, n)
		for v := 0; v < n; v++ {
			if v != s {
				qs = append(qs, query{s: s, v: v, rel: b.AddReliability(s, v), dist: b.AddDistance(s, v)})
			}
		}
	}
	mustRun(t, b)
	eps := hoeffdingEps(r)
	assert := func(count *int, ratio *float64, what string, s, v int, got, want float64) {
		t.Helper()
		dev := math.Abs(got - want)
		if st != nil {
			*count++
			*ratio = max(*ratio, dev/eps)
		}
		if dev > eps {
			t.Errorf("%s: %s for (%d, %d) = %v, exact %v: |error| %.4g > Hoeffding ε %.4g (r = %d, δ = %g)",
				name, what, s, v, got, want, dev, eps, r, hoeffdingDelta)
		}
	}
	var scratch oracleStats
	if st == nil {
		st = &scratch
	}
	for _, s := range sources {
		law, disc := exactLaws(t, g, s)
		h := b.res.knnHist[b.queries[knnIDs[s]].slot]
		for v := 0; v < n; v++ {
			reached := 0.0
			for d, want := range law[v] {
				got := 0.0
				if d*n+v < len(h) {
					got = float64(h[d*n+v]) / float64(r)
				}
				reached += got
				assert(&st.knnChecks, &st.knnMaxRatio, fmt.Sprintf("k-NN cell Pr(dist = %d)", d), s, v, got, want)
			}
			assert(&st.knnChecks, &st.knnMaxRatio, "k-NN unreachable share", s, v, 1-reached, disc[v])
		}
	}
	var law [][]float64
	var disc []float64
	for i, q := range qs {
		if i == 0 || q.s != qs[i-1].s {
			law, disc = exactLaws(t, g, q.s)
		}
		check := func(what string, got, want float64) {
			t.Helper()
			assert(&st.checks, &st.maxRatio, what, q.s, q.v, got, want)
		}
		check("Pr(s~t)", b.Reliability(q.rel), 1-disc[q.v])
		dist, dc := b.DistanceDistribution(q.dist)
		check("Pr(disconnected)", dc, disc[q.v])
		for d, want := range law[q.v] {
			check(fmt.Sprintf("Pr(dist = %d)", d), dist[d], want)
		}
		mass := dc
		for d, p := range dist {
			if d < 0 || d >= n {
				t.Errorf("%s: dist(%d, %d) = %d is impossible on %d vertices", name, q.s, q.v, d, n)
			}
			mass += p
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("%s: law of dist(%d, %d) has mass %v, want 1", name, q.s, q.v, mass)
		}
	}
	distIDs := make(map[[2]int]int, len(qs))
	for _, q := range qs {
		distIDs[[2]int{q.s, q.v}] = q.dist
	}
	for _, s := range sources {
		law, _ := exactLaws(t, g, s)
		knnMedian := make(map[int]int, n)
		for _, nb := range b.KNearestWithMedians(knnIDs[s]) {
			knnMedian[nb.V] = nb.Median
		}
		medians := make([]int, n)
		undecided := 0
		for v := 0; v < n; v++ {
			if v == s {
				continue
			}
			want, decided := exactMedian(law[v], eps, r)
			medians[v] = want
			if !decided {
				undecided++
				continue
			}
			if got := b.MedianDistance(distIDs[[2]int{s, v}]); got != want {
				t.Errorf("%s: MedianDistance(%d, %d) = %d, exact median %d", name, s, v, got, want)
			}
			got, ranked := knnMedian[v]
			if !ranked {
				got = -1
			}
			if got != want {
				t.Errorf("%s: k-NN median of %d from %d = %d (-1: unranked), exact median %d", name, v, s, got, want)
			}
		}
		st.medians += n - 1 - undecided
		st.medianSkips += undecided
		if undecided > 0 {
			st.rankingSkips++
			continue
		}
		st.rankings++
		var ranking []int // exact: by median, then vertex id
		for d := 0; d < n; d++ {
			for v := 0; v < n; v++ {
				if v != s && medians[v] == d {
					ranking = append(ranking, v)
				}
			}
		}
		if got := b.KNearest(knnIDs[s]); !slices.Equal(got, ranking) {
			t.Errorf("%s: KNearest(%d, k = %d) = %v, exact ranking %v", name, s, n, got, ranking)
		}
	}
}

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

// triangleGraph is the 3-cycle with every pair at probability 0.5, so
// 0 and 1 connect directly or around the third vertex.
func triangleGraph(t testing.TB) *uncertain.Graph {
	g, err := uncertain.New(3, []uncertain.Pair{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 0, V: 2, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// starGraph has strong spokes from 0 to 1 and 2, a weak spoke to 3 and
// a strong edge 3–4 behind it.
func starGraph(t testing.TB) *uncertain.Graph {
	g, err := uncertain.New(5, []uncertain.Pair{
		{U: 0, V: 1, P: 0.99},
		{U: 0, V: 2, P: 0.99},
		{U: 0, V: 3, P: 0.05},
		{U: 3, V: 4, P: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExactOracleClosedForms cross-checks the enumeration itself
// against the laws the fixtures admit in closed form.
func TestExactOracleClosedForms(t *testing.T) {
	_, disc := exactLaws(t, chainGraph(t, 3, 0.7), 0)
	if got := 1 - disc[2]; math.Abs(got-0.49) > 1e-12 {
		t.Errorf("chain Pr(0~2) = %v, want p² = 0.49", got)
	}
	_, disc = exactLaws(t, triangleGraph(t), 0)
	if got := 1 - disc[1]; math.Abs(got-0.625) > 1e-12 {
		t.Errorf("triangle Pr(0~1) = %v, want p + (1-p)p² = 0.625", got)
	}
	law, disc := exactLaws(t, chainGraph(t, 3, 0.8), 0)
	if math.Abs(law[2][2]-0.64) > 1e-12 || math.Abs(disc[2]-0.36) > 1e-12 {
		t.Errorf("chain law of dist(0,2) = %v + disc %v, want 0.64 at 2 and 0.36", law[2], disc[2])
	}
}

func TestReliabilityChain(t *testing.T) {
	g := chainGraph(t, 3, 0.7)
	checkOracle(t, "chain", g, []int{0}, 40000, 1, nil)
	b := NewBatch(g, Config{Worlds: 100, Seed: 1})
	id := b.AddReliability(1, 1)
	mustRun(t, b)
	if b.Reliability(id) != 1 {
		t.Error("self reliability must be 1")
	}
}

func TestReliabilityWithAlternativePath(t *testing.T) {
	checkOracle(t, "triangle", triangleGraph(t), []int{0}, 60000, 2, nil)
}

func TestDistanceDistributionChain(t *testing.T) {
	checkOracle(t, "chain", chainGraph(t, 3, 0.8), []int{0}, 40000, 3, nil)
}

// TestBatchMatchesExactOracle is the answer-level check across
// fixtures: the chain, triangle and star plus 20 random graphs of at
// most maxOraclePairs pairs (certain, impossible and fractional
// probabilities, connected and not), every source against every other
// vertex. Short mode (the race run) keeps the first eight fixtures.
func TestBatchMatchesExactOracle(t *testing.T) {
	const r = 10000
	var st oracleStats
	fixtures := []*uncertain.Graph{chainGraph(t, 4, 0.6), triangleGraph(t), starGraph(t)}
	rng := randx.New(2024)
	for len(fixtures) < 23 {
		n := 3 + rng.Intn(6)
		var pairs []uncertain.Pair
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if len(pairs) == maxOraclePairs || rng.Intn(3) == 0 {
					continue
				}
				p := float64(1+rng.Intn(19)) / 20
				switch rng.Intn(12) {
				case 0:
					p = 1
				case 1:
					p = 0
				}
				pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		g, err := uncertain.New(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, g)
	}
	if testing.Short() {
		fixtures = fixtures[:8]
	}
	for gi, g := range fixtures {
		sources := make([]int, g.NumVertices())
		for s := range sources {
			sources[s] = s
		}
		checkOracle(t, fmt.Sprintf("fixture %d", gi), g, sources, r, int64(gi), &st)
	}
	t.Logf("%d probabilities checked; largest |error| = %.3g of the Hoeffding ε = %.4g (r = %d, δ = %g)",
		st.checks, st.maxRatio, hoeffdingEps(r), r, hoeffdingDelta)
	t.Logf("%d k-NN histogram cells and unreachable shares checked; largest |error| = %.3g of ε",
		st.knnChecks, st.knnMaxRatio)
	t.Logf("%d exact medians checked, %d skipped as within ε + 1/(2r) of 1/2; %d k-NN rankings checked, %d skipped",
		st.medians, st.medianSkips, st.rankings, st.rankingSkips)
}

func TestMedianDistance(t *testing.T) {
	// High-probability chain: median = exact distance.
	b := NewBatch(chainGraph(t, 5, 0.95), Config{Worlds: 2000, Seed: 4})
	id := b.AddDistance(0, 3)
	mustRun(t, b)
	if got := b.MedianDistance(id); got != 3 {
		t.Errorf("median distance = %d, want 3", got)
	}
	// Low-probability chain: median is disconnection.
	b2 := NewBatch(chainGraph(t, 5, 0.2), Config{Worlds: 2000, Seed: 5})
	id = b2.AddDistance(0, 4)
	mustRun(t, b2)
	if got := b2.MedianDistance(id); got != -1 {
		t.Errorf("median distance = %d, want -1 (disconnected)", got)
	}
}

func TestKNearestDeterministicStructure(t *testing.T) {
	// Strong spokes to 1, 2 and a weak one to 3: nearest two are 1, 2.
	b := NewBatch(starGraph(t), Config{Worlds: 3000, Seed: 6})
	two := b.AddKNearest(0, 2)
	all := b.AddKNearest(0, 10)
	mustRun(t, b)
	if got := b.KNearest(two); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("KNearest = %v, want [1 2]", got)
	}
	// Asking for more neighbours than reachable returns what exists.
	if got := b.KNearest(all); len(got) > 4 {
		t.Errorf("KNearest returned %d candidates", len(got))
	}
}

// TestExpectedDegreeExact: expected degrees need no sampling; they are
// read off the graph as the sum of incident probabilities.
func TestExpectedDegreeExact(t *testing.T) {
	if got := chainGraph(t, 3, 0.5).ExpectedDegree(1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("E[deg] = %v, want 1", got)
	}
}

func TestDefaultWorldsIsHoeffding(t *testing.T) {
	if got := DefaultWorlds(); got != 738 {
		t.Errorf("DefaultWorlds = %d, want 738 (Hoeffding 0.05/0.05)", got)
	}
	b := NewBatch(chainGraph(t, 3, 0.5), Config{Workers: 1})
	b.AddReliability(0, 2)
	mustRun(t, b)
	if got := b.WorldsRun(); got != 738 {
		t.Errorf("an unset Worlds ran %d worlds, want 738", got)
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
	b := NewBatch(g, Config{Worlds: 50})
	near := b.AddReliability(0, 1)
	far := b.AddReliability(0, 2)
	mustRun(t, b)
	if got := b.Reliability(near); got != 1 {
		t.Errorf("Pr(0~1) = %v, want 1", got)
	}
	if got := b.Reliability(far); got != 0 {
		t.Errorf("Pr(0~2) = %v, want 0", got)
	}
}

// TestEngineZeroAllocSteadyState is the query-side companion of
// uncertain's TestSamplerZeroAllocs: once a batch's sampler, BFS
// scratch and accumulators have warmed up, a re-run with a fresh seed
// performs zero heap allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	b := NewBatch(chainGraph(t, 30, 0.5), Config{Worlds: 40, Workers: 1})
	id := b.AddReliability(0, 29)
	b.AddDistance(0, 15)
	b.AddKNearest(0, 5)
	ctx := context.Background()
	if err := b.Run(ctx); err != nil { // warm up batch buffers
		t.Fatal(err)
	}
	seed := int64(1)
	allocs := testing.AllocsPerRun(20, func() {
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
