package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"uncertaingraph/internal/uncertain"
)

// randomUncertainGraph draws a connected-ish random uncertain graph:
// n vertices, a scattering of distinct random pairs with probabilities
// spanning (0, 1), plus a few certain and a few zero-probability edges
// so worlds mix reachable, unreachable and deterministic structure.
func randomUncertainGraph(t testing.TB, rng *rand.Rand, n int) *uncertain.Graph {
	type key struct{ u, v int }
	seen := make(map[key]struct{})
	var pairs []uncertain.Pair
	m := n + rng.Intn(2*n)
	for len(pairs) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := seen[key{u, v}]; dup {
			continue
		}
		seen[key{u, v}] = struct{}{}
		var p float64
		switch rng.Intn(10) {
		case 0:
			p = 1 // certain edge
		case 1:
			p = 0 // never-present edge
		default:
			p = float64(1+rng.Intn(97)) / 98
		}
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mixQuery is one randomly drawn query of a property-test mix.
type mixQuery struct {
	op      qkind
	s, t, k int
}

// randomMix draws a query mix biased toward the early-exit shapes:
// mostly reliability and distance queries (whose sources stop their
// BFS at target resolution), a few k-NN queries (full component
// scans), deliberately overlapping sources and occasional s == t.
func randomMix(rng *rand.Rand, n int) []mixQuery {
	qcount := 1 + rng.Intn(12)
	mix := make([]mixQuery, qcount)
	for i := range mix {
		s := rng.Intn(n)
		if i > 0 && rng.Intn(3) == 0 {
			s = mix[rng.Intn(i)].s // shared source: one BFS, many queries
		}
		switch rng.Intn(8) {
		case 0:
			mix[i] = mixQuery{op: qKNearest, s: s, k: 1 + rng.Intn(n)}
		case 1:
			mix[i] = mixQuery{op: qDistance, s: s, t: rng.Intn(n)}
		case 2:
			mix[i] = mixQuery{op: qReliability, s: s, t: s} // self target
		default:
			mix[i] = mixQuery{op: qReliability, s: s, t: rng.Intn(n)}
		}
	}
	return mix
}

// mixResults collects every answer of one configured run.
type mixResults struct {
	rel     []float64
	discs   []float64
	dists   []map[int]float64
	medians []int
	knn     [][]Neighbor
}

func runMix(t testing.TB, g *uncertain.Graph, mix []mixQuery, seed int64, workers int, full bool) mixResults {
	b := NewBatch(g, Config{Worlds: 20 + int(seed%2), Seed: seed, Workers: workers})
	b.fullBFS = full
	ids := make([]int, len(mix))
	for i, q := range mix {
		switch q.op {
		case qReliability:
			ids[i] = b.AddReliability(q.s, q.t)
		case qDistance:
			ids[i] = b.AddDistance(q.s, q.t)
		case qKNearest:
			ids[i] = b.AddKNearest(q.s, q.k)
		}
	}
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var res mixResults
	for i, q := range mix {
		switch q.op {
		case qReliability:
			res.rel = append(res.rel, b.Reliability(ids[i]))
		case qDistance:
			dist, disc := b.DistanceDistribution(ids[i])
			res.dists = append(res.dists, dist)
			res.discs = append(res.discs, disc)
			res.medians = append(res.medians, b.MedianDistance(ids[i]))
		case qKNearest:
			res.knn = append(res.knn, b.KNearestWithMedians(ids[i]))
		}
	}
	return res
}

// TestBatchEarlyExitPropertyBitIdentity is the property layer locking
// the tentpole down: for randomized graphs and query mixes, the
// early-exit batch must answer bit-identically to a full-BFS reference
// run on the same seeds, for Workers ∈ {1, 4} — extending
// TestBatchWorkerCountBitIdentity from one pinned mix to an arbitrary
// family. Any divergence (a target read before resolution, a stale
// distance entry, a mark leak across sources) fails with the trial's
// reproduction parameters.
func TestBatchEarlyExitPropertyBitIdentity(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(56)
		g := randomUncertainGraph(t, rng, n)
		mix := randomMix(rng, n)
		seed := rng.Int63()
		ref := runMix(t, g, mix, seed, 1, true)
		for _, workers := range []int{1, 4} {
			for _, full := range []bool{false, true} {
				if workers == 1 && full {
					continue // the reference itself
				}
				got := runMix(t, g, mix, seed, workers, full)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("trial %d (n=%d seed=%d workers=%d fullBFS=%v): results diverged from the full-BFS reference\nmix  %+v\ngot  %+v\nwant %+v",
						trial, n, seed, workers, full, mix, got, ref)
				}
			}
		}
	}
}

// TestBatchEarlyExitSkipsComponentScan asserts the fast path is real
// at the engine level: a reliability-only batch on a long certain path
// with an adjacent target must prune its walks, observable as the
// number of vertices the lane's last packed walk discovered.
func TestBatchEarlyExitSkipsComponentScan(t *testing.T) {
	n := 500
	pairs := make([]uncertain.Pair, n-1)
	for i := range pairs {
		pairs[i] = uncertain.Pair{U: i, V: i + 1, P: 1}
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(g, Config{Worlds: 4, Seed: 1, Workers: 1})
	id := b.AddReliability(0, 1)
	mustRun(t, b)
	if got := b.Reliability(id); got != 1 {
		t.Fatalf("Pr(0~1) = %v on a certain edge, want 1", got)
	}
	// Every world of a certain path is the full path: the last walk
	// must have stopped after discovering the adjacent target (2
	// vertices), where a full walk discovers all n vertices.
	if got := b.ws[0].discovered; got != 2 {
		t.Errorf("early-exit walk discovered %d vertices, want 2", got)
	}
	b.fullBFS = true
	mustRun(t, b)
	if got := b.ws[0].discovered; got != n {
		t.Errorf("fullBFS reference discovered %d vertices, want %d; test observable is broken", got, n)
	}
}

// TestBatchMemoryBudgetRejects pins the typed over-budget rejection:
// a k-NN query set whose worst-case accumulators exceed MemoryBudget
// fails Run with a *BudgetError wrapping ErrOverBudget before any
// buffer grows, leaves the batch un-ran, and succeeds unchanged once
// the budget allows it.
func TestBatchMemoryBudgetRejects(t *testing.T) {
	g := dblpUncertain(t)
	n := g.NumVertices()
	b := NewBatch(g, Config{Worlds: 10, Seed: 3, Workers: 1, MemoryBudget: 1024})
	id := b.AddKNearest(0, 5)
	err := b.Run(context.Background())
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %T does not unwrap to *BudgetError", err)
	}
	if want := WorstCaseAccumBytes(n, 1, 1); be.NeedBytes != want || be.BudgetBytes != 1024 {
		t.Errorf("BudgetError = %+v, want need %d budget 1024", be, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("results readable after an over-budget Run")
			}
		}()
		_ = b.KNearest(id)
	}()
	// Raising the budget admits the identical request; answers match an
	// unbudgeted batch bit-for-bit.
	b.MemoryBudget = WorstCaseAccumBytes(n, 1, 1)
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	free := NewBatch(g, Config{Worlds: 10, Seed: 3, Workers: 1})
	fid := free.AddKNearest(0, 5)
	mustRun(t, free)
	if got, want := b.KNearestWithMedians(id), free.KNearestWithMedians(fid); !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted run diverged: %v vs %v", got, want)
	}
}

// TestBatchResetShedsHighWaterBuffers pins the pooled-serving side of
// the budget: after a k-NN-heavy request grows the accumulators past
// the budget, the next Reset sheds them, and the batch still answers
// subsequent requests correctly.
func TestBatchResetShedsHighWaterBuffers(t *testing.T) {
	g := dblpUncertain(t)
	b := NewBatch(g, Config{Worlds: 10, Seed: 7, Workers: 1})
	for i := 0; i < 4; i++ {
		b.AddKNearest(i*7, 5)
	}
	mustRun(t, b)
	high := b.AccumulatorBytes()
	if high == 0 {
		t.Fatal("k-NN run retained no accumulator bytes; observable broken")
	}

	// Without a budget, Reset keeps the high-water buffers (the
	// steady-state zero-alloc contract)...
	b.Reset()
	if got := b.AccumulatorBytes(); got != high {
		t.Errorf("budgetless Reset changed retained bytes: %d -> %d", high, got)
	}
	// ...with one, it sheds every accumulator.
	b.MemoryBudget = high / 2
	b.Reset()
	if got := b.AccumulatorBytes(); got != 0 {
		t.Errorf("Reset retained %d accumulator bytes over budget %d, want 0 after shed", got, high/2)
	}
	// The shed batch still serves: a reliability request (worst case 0
	// bytes) runs under the tiny budget and matches a fresh batch.
	b.Seed = 11
	id := b.AddReliability(0, 9)
	mustRun(t, b)
	fresh := NewBatch(g, Config{Worlds: 10, Seed: 11, Workers: 1})
	fid := fresh.AddReliability(0, 9)
	mustRun(t, fresh)
	if got, want := b.Reliability(id), fresh.Reliability(fid); got != want {
		t.Errorf("post-shed reliability %v != fresh %v", got, want)
	}
}
