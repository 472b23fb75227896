package query

import (
	"context"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// dblpUncertain builds the query-side dblp fixture: the tiny dblp
// stand-in graph (566 vertices, 1679 edges) with deterministic
// pseudo-probabilities spanning (0, 1) on every edge.
func dblpUncertain(tb testing.TB) *uncertain.Graph {
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		tb.Fatal(err)
	}
	if n, m := d.Graph.NumVertices(), d.Graph.NumEdges(); n != 566 || m != 1679 {
		tb.Fatalf("fixture drifted: n=%d m=%d, want 566/1679", n, m)
	}
	pairs := make([]uncertain.Pair, 0, d.Graph.NumEdges())
	d.Graph.ForEachEdge(func(u, v int) {
		h := (u*2654435761 + v*40503) % 97
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: float64(h+1) / 98})
	})
	g, err := uncertain.New(d.Graph.NumVertices(), pairs)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// mustRun runs b without cancellation, failing the test on error.
func mustRun(tb testing.TB, b *Batch) {
	tb.Helper()
	if err := b.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// floatRuleMedian reimplements the pre-fix MedianDistance walk — float
// probability mass accumulated until cum >= 0.5 — so the regression
// test can demonstrate where it diverges from the count rule.
func floatRuleMedian(dist map[int]float64) int {
	maxD := 0
	for d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	var cum float64
	for d := 0; d <= maxD; d++ {
		cum += dist[d]
		if cum >= 0.5 {
			return d
		}
	}
	return -1
}

// TestMedianRuleDivergenceRegression is the headline bugfix pin. The
// fixture has four vertex-disjoint s-t paths of lengths 1..4, the
// lengths 1..3 gated by a probabilistic first edge and the length-4
// path certain, so a world's distance is the length of the shortest
// open path. With even r = 12 and empirical counts {1:1, 2:4, 3:1,
// 4:6}, the old float rule accumulates 1/12 + 4/12 + 1/12 =
// 0.49999999999999994 < 0.5 and walks past the true median to 4,
// while the count rule (cum = 6 >= (12+1)/2 = 6) correctly stops at
// 3. MedianDistance must follow the count rule.
func TestMedianRuleDivergenceRegression(t *testing.T) {
	const s, target, r = 0, 7, 12
	g, err := uncertain.New(8, []uncertain.Pair{
		{U: 0, V: 7, P: 0.1}, // gate: d = 1 when open
		{U: 0, V: 1, P: 0.4}, // gate of the two-hop path 0-1-7
		{U: 1, V: 7, P: 1},
		{U: 0, V: 2, P: 0.15}, // gate of the three-hop path 0-2-3-7
		{U: 2, V: 3, P: 1},
		{U: 3, V: 7, P: 1},
		{U: 0, V: 4, P: 1}, // certain four-hop path 0-4-5-6-7
		{U: 4, V: 5, P: 1},
		{U: 5, V: 6, P: 1},
		{U: 6, V: 7, P: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// First, confirm the rounding the bug rides on (computed at runtime;
	// as untyped constants the sum would fold to exactly 0.5).
	divergent := []float64{1, 4, 1}
	var cum float64
	for _, c := range divergent {
		cum += c / r
	}
	if cum >= 0.5 {
		t.Fatal("float accumulation of 1/12 + 4/12 + 1/12 reached 0.5; divergence scenario impossible")
	}
	// Find the first seed whose 12 sampled worlds produce the divergent
	// counts. The search is deterministic, so the test is stable.
	for seed := int64(0); seed < 5000; seed++ {
		b := NewBatch(g, Config{Worlds: r, Seed: seed})
		id := b.AddDistance(s, target)
		mustRun(t, b)
		dist, disc := b.DistanceDistribution(id)
		if disc != 0 {
			t.Fatalf("seed %d: certain path cannot disconnect (disc=%v)", seed, disc)
		}
		if dist[1] != 1.0/r || dist[2] != 4.0/r || dist[3] != 1.0/r || dist[4] != 6.0/r {
			continue
		}
		if old := floatRuleMedian(dist); old != 4 {
			t.Fatalf("seed %d: old float rule returned %d; expected the buggy 4", seed, old)
		}
		if got := b.MedianDistance(id); got != 3 {
			t.Fatalf("seed %d: MedianDistance = %d, want count-rule median 3", seed, got)
		}
		return
	}
	t.Fatal("no seed under 5000 produced the divergent counts; loosen the search")
}

// TestMedianDistanceAgreesWithKNearest pins the unified median rule on
// the tiny dblp fixture: for every source s and every target t, the
// median MedianDistance reports must equal the median KNearest ranks
// by, evaluated on the same sampled worlds (one shared batch per
// source, both even and odd r).
func TestMedianDistanceAgreesWithKNearest(t *testing.T) {
	g := dblpUncertain(t)
	n := g.NumVertices()
	if testing.Short() {
		n = 64 // cover a prefix of sources in -short mode
	}
	b := NewBatch(g, Config{Workers: 1})
	distIDs := make([]int, g.NumVertices())
	for s := 0; s < n; s++ {
		b.Reset()
		b.Seed = int64(1000 + s)
		if s%2 == 0 {
			b.Worlds = 24 // even r: the old float rule's failure domain
		} else {
			b.Worlds = 25
		}
		knnID := b.AddKNearest(s, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			if v != s {
				distIDs[v] = b.AddDistance(s, v)
			}
		}
		mustRun(t, b)
		medians := make(map[int]int, g.NumVertices())
		for _, nb := range b.KNearestWithMedians(knnID) {
			medians[nb.V] = nb.Median
		}
		for v := 0; v < g.NumVertices(); v++ {
			if v == s {
				continue
			}
			want, ok := medians[v]
			if !ok {
				want = -1 // not a k-NN candidate: median is disconnection
			}
			if got := b.MedianDistance(distIDs[v]); got != want {
				t.Fatalf("s=%d t=%d: MedianDistance %d != k-NN median %d", s, v, got, want)
			}
		}
	}
}

// batchResults collects every query answer of one configured run into
// comparable values.
type batchResults struct {
	rel     []float64
	medians []int
	discs   []float64
	dists   []map[int]float64
	knn     [][]int
}

func runDblpBatch(tb testing.TB, g *uncertain.Graph, workers int) batchResults {
	return runDblpBatchBFS(tb, g, workers, false)
}

func runDblpBatchBFS(tb testing.TB, g *uncertain.Graph, workers int, fullBFS bool) batchResults {
	pairs := [][2]int{{0, 13}, {7, 200}, {99, 100}, {250, 251}, {3, 565}}
	sources := []struct{ s, k int }{{0, 5}, {42, 8}, {123, 3}}
	b := NewBatch(g, Config{Worlds: 40, Seed: 17, Workers: workers})
	b.fullBFS = fullBFS
	var relIDs, distIDs, knnIDs []int
	for _, p := range pairs {
		relIDs = append(relIDs, b.AddReliability(p[0], p[1]))
		distIDs = append(distIDs, b.AddDistance(p[0], p[1]))
	}
	for _, q := range sources {
		knnIDs = append(knnIDs, b.AddKNearest(q.s, q.k))
	}
	mustRun(tb, b)
	var res batchResults
	for i := range pairs {
		res.rel = append(res.rel, b.Reliability(relIDs[i]))
		res.medians = append(res.medians, b.MedianDistance(distIDs[i]))
		dist, disc := b.DistanceDistribution(distIDs[i])
		res.dists = append(res.dists, dist)
		res.discs = append(res.discs, disc)
	}
	for i := range sources {
		res.knn = append(res.knn, b.KNearest(knnIDs[i]))
	}
	return res
}

// TestBatchWorkerCountBitIdentity checks, in the style of
// TestRunWorkerCountBitIdentity, that Workers ∈ {1, 4} produce
// bit-identical query answers on the dblp fixture — with and without
// the target-resolved early exit — and pins the Workers=1 values so
// the engine cannot silently drift.
// (TestBatchEarlyExitPropertyBitIdentity extends the same property to
// randomized graphs and query mixes.)
func TestBatchWorkerCountBitIdentity(t *testing.T) {
	g := dblpUncertain(t)
	r1 := runDblpBatch(t, g, 1)
	r4 := runDblpBatch(t, g, 4)
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("Workers=1 and Workers=4 answers differ:\n%+v\nvs\n%+v", r1, r4)
	}
	for _, workers := range []int{1, 4} {
		if full := runDblpBatchBFS(t, g, workers, true); !reflect.DeepEqual(full, r1) {
			t.Errorf("Workers=%d full-BFS reference diverged from early-exit answers:\n%+v\nvs\n%+v", workers, full, r1)
		}
	}

	wantRel := []float64{0.975, 0, 0.275, 0.1, 0.675}
	wantMed := []int{4, -1, -1, -1, 4}
	wantKNN := [][]int{
		{564, 30, 63, 88, 96},
		{28, 64, 172, 208, 287, 321, 344, 380},
		{173, 380, 495},
	}
	if !reflect.DeepEqual(r1.rel, wantRel) {
		t.Errorf("pinned reliabilities drifted:\ngot  %v\nwant %v", r1.rel, wantRel)
	}
	if !reflect.DeepEqual(r1.medians, wantMed) {
		t.Errorf("pinned medians drifted:\ngot  %v\nwant %v", r1.medians, wantMed)
	}
	if !reflect.DeepEqual(r1.knn, wantKNN) {
		t.Errorf("pinned k-NN drifted:\ngot  %v\nwant %v", r1.knn, wantKNN)
	}
	for i, dist := range r1.dists {
		var total float64
		for _, p := range dist {
			total += p
		}
		if math.Abs(total+r1.discs[i]-1) > 1e-12 {
			t.Errorf("pair %d: distribution mass %v + disc %v != 1", i, total, r1.discs[i])
		}
	}
}

// TestBatchIntraWorldBitIdentity pins the worlds-scarce regime: a
// batch whose worker budget exceeds its world count (two worlds at 1,
// 4 and 16 workers, so most lanes get no world) must answer
// bit-identically to the sequential configuration, across reliability,
// distance and k-NN queries on random graphs.
func TestBatchIntraWorldBitIdentity(t *testing.T) {
	rng := randx.New(31)
	for trial := 0; trial < 8; trial++ {
		ug := randomUncertainGraph(t, rng, 40+rng.Intn(60))
		n := ug.NumVertices()
		type answers struct {
			rel, disc float64
			dd        map[int]float64
			med       int
			knn       []int
		}
		var got []answers
		for _, workers := range []int{1, 4, 16} {
			b := NewBatch(ug, Config{Worlds: 2, Seed: int64(trial), Workers: workers})
			r1 := b.AddReliability(0, n-1)
			d1 := b.AddDistance(0, n/2)
			k1 := b.AddKNearest(0, 5)
			mustRun(t, b)
			dd, disc := b.DistanceDistribution(d1)
			got = append(got, answers{
				rel:  b.Reliability(r1),
				disc: disc,
				dd:   dd,
				med:  b.MedianDistance(d1),
				knn:  b.KNearest(k1),
			})
		}
		for i := 1; i < len(got); i++ {
			if !reflect.DeepEqual(got[0], got[i]) {
				t.Fatalf("trial %d: answers diverge between worker configs 0 and %d", trial, i)
			}
		}
	}
}

// TestBatchSharedWorldsConsistency checks cross-query coherence inside
// one batch: a reliability query and a distance query on the same pair
// see the same worlds, so Pr(connected) must equal 1 - Pr(disconnected)
// exactly, and the distance histogram mass must equal the hit count.
func TestBatchSharedWorldsConsistency(t *testing.T) {
	g := dblpUncertain(t)
	b := NewBatch(g, Config{Worlds: 80, Seed: 23})
	type q struct{ rel, dist int }
	var qs []q
	for _, p := range [][2]int{{0, 9}, {10, 400}, {77, 78}} {
		qs = append(qs, q{rel: b.AddReliability(p[0], p[1]), dist: b.AddDistance(p[0], p[1])})
	}
	mustRun(t, b)
	for i, quer := range qs {
		rel := b.Reliability(quer.rel)
		dist, disc := b.DistanceDistribution(quer.dist)
		var mass float64
		for _, p := range dist {
			mass += p
		}
		if math.Abs(rel-(1-disc)) > 1e-15 || math.Abs(rel-mass) > 1e-12 {
			t.Errorf("query %d: reliability %v vs disconnection %v / mass %v", i, rel, disc, mass)
		}
	}
}

// TestBatchSharedSourceKNN pins the per-source histogram sharing: two
// k-NN queries with the same source share one accumulator (the larger
// k's result must extend the smaller's), and a duplicated query cannot
// double-count worlds — the medians stay identical to a batch carrying
// the query once.
func TestBatchSharedSourceKNN(t *testing.T) {
	g := dblpUncertain(t)
	b := NewBatch(g, Config{Worlds: 30, Seed: 9, Workers: 1})
	small := b.AddKNearest(0, 3)
	big := b.AddKNearest(0, 8)
	mustRun(t, b)
	smallRes := append([]Neighbor(nil), b.KNearestWithMedians(small)...)
	bigRes := b.KNearestWithMedians(big)
	if len(smallRes) != 3 || len(bigRes) != 8 {
		t.Fatalf("result sizes %d/%d, want 3/8", len(smallRes), len(bigRes))
	}
	if !reflect.DeepEqual(smallRes, bigRes[:3]) {
		t.Errorf("shared-source k-NN prefixes differ: %v vs %v", smallRes, bigRes[:3])
	}
	solo := NewBatch(g, Config{Worlds: 30, Seed: 9, Workers: 1})
	id := solo.AddKNearest(0, 8)
	mustRun(t, solo)
	if got := solo.KNearestWithMedians(id); !reflect.DeepEqual(got, bigRes) {
		t.Errorf("duplicated query changed the answer: %v vs %v", bigRes, got)
	}
}

// TestBatchShrinkRegrowKeepsBuffers pins the pooled-serving memory
// contract under mixed traffic: after a large request, a smaller one,
// and the large shape again, the regrown run recovers the histograms
// it had already grown instead of re-allocating them — steady state
// stays zero-alloc across changing request shapes.
func TestBatchShrinkRegrowKeepsBuffers(t *testing.T) {
	g := dblpUncertain(t)
	b := NewBatch(g, Config{Worlds: 30, Workers: 1})
	large := func(seed int64) {
		b.Reset()
		b.Seed = seed
		for i := 0; i < 4; i++ {
			b.AddDistance(11*i, 13*i+7)
			b.AddKNearest(11*i, 5)
		}
		mustRun(t, b)
	}
	large(1)
	// A smaller request truncates the per-kind accumulator tables...
	b.Reset()
	b.Seed = 2
	b.AddDistance(0, 7)
	mustRun(t, b)
	large(1) // ...and the regrown shape warms any newly-seen distances.
	allocs := testing.AllocsPerRun(10, func() {
		large(1)
	})
	if allocs != 0 {
		t.Errorf("shrink/regrow cycle allocates %v times per request, want 0", allocs)
	}
}

// TestAddKNearestHugeK is the regression for the int32 narrowing bug
// FuzzBatchRequestJSON uncovered: a k near MaxInt64 used to wrap to a
// negative int32 slot and panic the ranking slice. Oversized k must
// behave exactly like k = n.
func TestAddKNearestHugeK(t *testing.T) {
	g := dblpUncertain(t)
	huge := NewBatch(g, Config{Worlds: 20, Seed: 3, Workers: 1})
	hid := huge.AddKNearest(0, int(^uint(0)>>1)) // MaxInt
	mustRun(t, huge)
	all := NewBatch(g, Config{Worlds: 20, Seed: 3, Workers: 1})
	aid := all.AddKNearest(0, g.NumVertices())
	mustRun(t, all)
	if got, want := huge.KNearest(hid), all.KNearest(aid); !reflect.DeepEqual(got, want) {
		t.Errorf("huge k diverged from k = n: %d vs %d neighbours", len(got), len(want))
	}
}

// TestBatchResetReuse drives the serving pattern: one batch, many
// Reset/Run cycles with different queries, answers identical to a
// fresh batch each time.
func TestBatchResetReuse(t *testing.T) {
	g := dblpUncertain(t)
	reused := NewBatch(g, Config{Worlds: 30, Workers: 1})
	for round := 0; round < 5; round++ {
		s := 17 * round
		reused.Reset()
		reused.Seed = int64(round)
		relID := reused.AddReliability(s, s+31)
		knnID := reused.AddKNearest(s, 4)
		mustRun(t, reused)

		fresh := NewBatch(g, Config{Worlds: 30, Seed: int64(round), Workers: 1})
		fRel := fresh.AddReliability(s, s+31)
		fKnn := fresh.AddKNearest(s, 4)
		mustRun(t, fresh)

		if got, want := reused.Reliability(relID), fresh.Reliability(fRel); got != want {
			t.Errorf("round %d: reused reliability %v != fresh %v", round, got, want)
		}
		if got, want := reused.KNearest(knnID), fresh.KNearest(fKnn); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: reused knn %v != fresh %v", round, got, want)
		}
	}
}
