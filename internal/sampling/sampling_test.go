package sampling

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/uncertain"
)

// runBG runs Run under a background context, failing the test on the
// impossible error path.
func runBG(t testing.TB, ug *uncertain.Graph, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), ug, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func testUncertain(t testing.TB) *uncertain.Graph {
	g := gen.HolmeKim(randx.New(1), 300, 3, 0.3)
	pairs := make([]uncertain.Pair, 0, g.NumEdges()+200)
	g.ForEachEdge(func(u, v int) {
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: 0.9})
	})
	// A few uncertain non-edges.
	rng := randx.New(2)
	added := 0
	for added < 200 {
		u, v := rng.Intn(300), rng.Intn(300)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		dup := false
		for _, pr := range pairs {
			if (pr.U == u && pr.V == v) || (pr.U == v && pr.V == u) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: 0.1})
		added++
	}
	ug, err := uncertain.New(300, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return ug
}

func TestRunProducesAllStatistics(t *testing.T) {
	ug := testUncertain(t)
	rep := runBG(t, ug, Config{Worlds: 10, Seed: 3, Distances: DistanceExactBFS})
	for _, name := range StatNames {
		vals, ok := rep.Samples[name]
		if !ok || len(vals) != 10 {
			t.Fatalf("statistic %s missing or wrong length", name)
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				t.Fatalf("statistic %s has NaN sample", name)
			}
		}
	}
}

func TestSampledNEMatchesExactExpectation(t *testing.T) {
	// Footnote 5 of the paper: the sampled S_NE and S_AD agree with the
	// closed forms of Section 6.2.
	ug := testUncertain(t)
	rep := runBG(t, ug, Config{Worlds: 60, Seed: 4, Distances: DistanceExactBFS})
	if rel := math.Abs(rep.Mean("S_NE")-rep.ExactNE) / rep.ExactNE; rel > 0.02 {
		t.Errorf("sampled S_NE %v vs exact %v", rep.Mean("S_NE"), rep.ExactNE)
	}
	if rel := math.Abs(rep.Mean("S_AD")-rep.ExactAD) / rep.ExactAD; rel > 0.02 {
		t.Errorf("sampled S_AD %v vs exact %v", rep.Mean("S_AD"), rep.ExactAD)
	}
}

func TestRunDeterministic(t *testing.T) {
	ug := testUncertain(t)
	cfg := Config{Worlds: 5, Seed: 9, Distances: DistanceExactBFS}
	a, b := runBG(t, ug, cfg), runBG(t, ug, cfg)
	for _, name := range StatNames {
		if !reflect.DeepEqual(a.Samples[name], b.Samples[name]) {
			t.Fatalf("statistic %s not deterministic", name)
		}
	}
}

func TestCertainGraphHasZeroSEM(t *testing.T) {
	g := gen.HolmeKim(randx.New(5), 200, 3, 0.3)
	ug := uncertain.FromCertain(g)
	rep := runBG(t, ug, Config{Worlds: 8, Seed: 6, Distances: DistanceExactBFS})
	// Every world is the original graph: SEM must be 0 and the mean must
	// equal the true statistic.
	for _, name := range []string{"S_NE", "S_AD", "S_MD", "S_DV", "S_CC"} {
		if sem := rep.RelSEM(name); sem > 1e-12 {
			t.Errorf("%s: SEM = %v on certain graph", name, sem)
		}
	}
	if got, want := rep.Mean("S_CC"), stats.ClusteringCoefficient(g); math.Abs(got-want) > 1e-12 {
		t.Errorf("S_CC mean %v, want %v", got, want)
	}
	if got := rep.RelErr("S_NE", float64(g.NumEdges())); got != 0 {
		t.Errorf("S_NE relative error %v on certain graph", got)
	}
}

func TestScalarsOfKnownGraph(t *testing.T) {
	// Path 0-1-2-3: NE=3, AD=1.5, MD=2, APD=(3*1+2*2+1*3)/6=5/3, Diam=3.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	vals := ScalarsOf(g, Config{Distances: DistanceExactBFS}, 1)
	if vals["S_NE"] != 3 || vals["S_AD"] != 1.5 || vals["S_MD"] != 2 {
		t.Errorf("degree scalars wrong: %v", vals)
	}
	if math.Abs(vals["S_APD"]-5.0/3) > 1e-12 {
		t.Errorf("S_APD = %v, want 5/3", vals["S_APD"])
	}
	if vals["S_DiamLB"] != 3 {
		t.Errorf("S_DiamLB = %v, want 3", vals["S_DiamLB"])
	}
	if vals["S_CC"] != 0 {
		t.Errorf("S_CC = %v, want 0", vals["S_CC"])
	}
}

func TestRunVectorDegreeDistribution(t *testing.T) {
	ug := testUncertain(t)
	rows, err := RunVector(context.Background(), ug, Config{Worlds: 6, Seed: 7}, func(g *graph.Graph, _ int64) []float64 {
		return stats.DegreeDistribution(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatal("row count")
	}
	for _, row := range rows {
		var sum float64
		for _, f := range row {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("world degree distribution sums to %v", sum)
		}
	}
}

// TestRunVectorCancelsBetweenWorlds pins the statistics scans'
// cancellation grain: one lane runs 100 worlds as a 64-world group and
// a 36-world group, and an fn that cancels on its third call must be
// the last fn call, even mid-group. The run returns context.Canceled
// with no rows, and Progress never reports a world that was not
// scanned.
func TestRunVectorCancelsBetweenWorlds(t *testing.T) {
	ug := testUncertain(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	cfg := Config{Worlds: 100, Seed: 5, Workers: 1, Progress: func(done, _ int) {
		if done > calls {
			t.Errorf("Progress reported %d worlds after %d were scanned", done, calls)
		}
	}}
	rows, err := RunVector(ctx, ug, cfg, func(g *graph.Graph, _ int64) []float64 {
		calls++
		if calls == 3 {
			cancel()
		}
		return []float64{float64(g.NumEdges())}
	})
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("cancelled RunVector returned %d rows, err %v; want no rows and context.Canceled", len(rows), err)
	}
	if calls != 3 {
		t.Errorf("fn ran %d times, want 3: the scan must stop at the world after the cancel", calls)
	}
}

func TestBoxes(t *testing.T) {
	rows := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
		{4, 40},
		{5}, // short row: second coord treated as 0
	}
	boxes := Boxes(rows)
	if len(boxes) != 2 {
		t.Fatal("box count")
	}
	if boxes[0].Min != 1 || boxes[0].Max != 5 || boxes[0].Median != 3 {
		t.Errorf("box 0 = %+v", boxes[0])
	}
	if boxes[1].Min != 0 || boxes[1].Max != 40 {
		t.Errorf("box 1 = %+v", boxes[1])
	}
	if boxes[0].Q1 != 2 || boxes[0].Q3 != 4 {
		t.Errorf("quartiles = %+v", boxes[0])
	}
}

func TestBoxString(t *testing.T) {
	b := Box{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if b.String() == "" {
		t.Error("empty render")
	}
}
