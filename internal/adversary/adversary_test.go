package adversary

import (
	"context"
	"math"
	"reflect"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/uncertain"
)

// figure1b is the uncertain graph of paper Figure 1(b); see Table 1.
func figure1b(t testing.TB) *uncertain.Graph {
	g, err := uncertain.New(4, []uncertain.Pair{
		{U: 0, V: 1, P: 0.7},
		{U: 0, V: 2, P: 0.9},
		{U: 0, V: 3, P: 0.8},
		{U: 1, V: 2, P: 0.8},
		{U: 1, V: 3, P: 0.1},
		{U: 2, V: 3, P: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// originalDegrees of Figure 1(a): deg(v1)=3, deg(v2)=1, deg(v3)=deg(v4)=2.
var originalDegrees = []int{3, 1, 2, 2}

func TestXMatrixMatchesPaperTable1(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	x := XMatrix(m, 3)
	want := [][]float64{
		{0.006, 0.092, 0.398, 0.504},
		{0.054, 0.348, 0.542, 0.056},
		{0.020, 0.260, 0.720, 0.000},
		{0.180, 0.740, 0.080, 0.000},
	}
	for v := range want {
		for w := range want[v] {
			if math.Abs(x[v][w]-want[v][w]) > 1e-9 {
				t.Errorf("X[v%d][%d] = %v, want %v", v+1, w, x[v][w], want[v][w])
			}
		}
	}
}

func TestYMatrixMatchesPaperTable1(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	y := YMatrix(XMatrix(m, 3))
	// Paper Table 1 (to three decimals).
	want := [][]float64{
		{0.023, 0.064, 0.229, 0.900},
		{0.208, 0.242, 0.311, 0.100},
		{0.077, 0.180, 0.414, 0.000},
		{0.692, 0.514, 0.046, 0.000},
	}
	for v := range want {
		for w := range want[v] {
			// Paper values are printed to three decimals.
			if math.Abs(y[v][w]-want[v][w]) > 1e-3 {
				t.Errorf("Y[%d][v%d] = %v, want %v", w, v+1, y[v][w], want[v][w])
			}
		}
	}
	// Columns of Y sum to 1.
	for w := 0; w < 4; w++ {
		var sum float64
		for v := 0; v < 4; v++ {
			sum += y[v][w]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("column %d sums to %v", w, sum)
		}
	}
}

func TestColumnEntropiesMatchPaperExample2(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	ents := ColumnEntropies(m, []int{1, 2, 3})
	// Example 2: H(deg=3) ~ 0.469, H(deg=1) ~ 1.688, H(deg=2) ~ 1.742.
	cases := map[int]float64{3: 0.469, 1: 1.688, 2: 1.742}
	for w, want := range cases {
		if math.Abs(ents[w]-want) > 2e-3 {
			t.Errorf("H(Y_%d) = %v, want ~%v", w, ents[w], want)
		}
	}
}

func TestPaperExample2KEpsClaim(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	// "as three out of four vertices are 3-obfuscated, the graph provides
	// a (3, 0.25)-obfuscation".
	if got := NotObfuscatedFraction(m, originalDegrees, 3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("NotObfuscatedFraction(k=3) = %v, want 0.25", got)
	}
	if !IsKEpsObfuscation(m, originalDegrees, 3, 0.25) {
		t.Error("graph should be a (3,0.25)-obfuscation")
	}
	if IsKEpsObfuscation(m, originalDegrees, 3, 0.1) {
		t.Error("graph should not be a (3,0.1)-obfuscation")
	}
}

func TestCertainGraphEntropyIsLogCrowdSize(t *testing.T) {
	// For a certain graph, Y_ω is uniform over the vertices of degree ω
	// (the in-text discussion after Example 1): H = log2(count).
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})
	m := UncertainModel{G: uncertain.FromCertain(g)}
	ents := ColumnEntropies(m, []int{1})
	if want := math.Log2(6); math.Abs(ents[1]-want) > 1e-9 {
		t.Errorf("H(Y_1) = %v, want log2(6) = %v", ents[1], want)
	}
	levels := ObfuscationLevels(m, []int{1, 1, 1, 1, 1, 1})
	for v, level := range levels {
		if math.Abs(level-6) > 1e-6 {
			t.Errorf("vertex %d level = %v, want 6", v, level)
		}
	}
}

func TestDistinctValues(t *testing.T) {
	got := DistinctValues([]int{3, 1, 2, 2, 3, 1})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("DistinctValues = %v", got)
	}
	if DistinctValues(nil) != nil {
		t.Error("empty input should give empty output")
	}
}

func TestVertexEntropiesAlignWithColumns(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	cols := ColumnEntropies(m, []int{1, 2, 3})
	ents := VertexEntropies(m, originalDegrees)
	want := []float64{cols[3], cols[1], cols[2], cols[2]}
	for v := range want {
		if math.Abs(ents[v]-want[v]) > 1e-12 {
			t.Errorf("vertex %d entropy %v, want %v", v, ents[v], want[v])
		}
	}
}

func TestAnonymityCDF(t *testing.T) {
	levels := []float64{1, 2.5, 3, 6, 100}
	cdf := AnonymityCDF(levels, 10)
	// level<=1: {1}; <=2: {1}; <=3: {1,2.5,3}; <=6: +{6}; 100 excluded.
	want := []int{0, 1, 1, 3, 3, 3, 4, 4, 4, 4, 4}
	if !reflect.DeepEqual(cdf, want) {
		t.Errorf("AnonymityCDF = %v, want %v", cdf, want)
	}
}

func TestColumnEntropiesEmpty(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	if got := ColumnEntropies(m, nil); len(got) != 0 {
		t.Error("no columns requested should give empty map")
	}
}

func TestNotObfuscatedFractionEdgeCases(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	if got := NotObfuscatedFraction(m, nil, 3); got != 0 {
		t.Error("no vertices should give 0")
	}
	// k=1 requires entropy >= 0, which always holds.
	if got := NotObfuscatedFraction(m, originalDegrees, 1); got != 0 {
		t.Errorf("k=1 fraction = %v, want 0", got)
	}
}

// TestParallelDeterminism ensures repeated parallel runs agree exactly.
func TestParallelDeterminism(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	a := ColumnEntropies(m, []int{0, 1, 2, 3})
	for i := 0; i < 10; i++ {
		b := ColumnEntropies(m, []int{0, 1, 2, 3})
		if !reflect.DeepEqual(a, b) {
			t.Fatal("parallel column entropies are not deterministic")
		}
	}
}

// TestUncertainModelAbortsOnContext pins the model's Ctx: a nil or live
// context leaves the check's answer unchanged, and a cancelled one
// abandons the scan, so the check fails where it would pass.
func TestUncertainModelAbortsOnContext(t *testing.T) {
	g := figure1b(t)
	a := NewAssignment(originalDegrees)
	ctx, cancel := context.WithCancel(context.Background())
	// k = 1 k-obfuscates every vertex, so a complete check passes at
	// eps = 0.
	for _, m := range []UncertainModel{{G: g}, {G: g, Ctx: ctx}} {
		if eps, ok := a.Check(m, 1, 0); eps != 0 || !ok {
			t.Errorf("Ctx %v: Check = %v, %v, want 0, true", m.Ctx, eps, ok)
		}
	}
	cancel()
	m := UncertainModel{G: g, Ctx: ctx}
	if _, ok := a.Check(m, 1, 0); ok {
		t.Error("cancelled-context model passes the check")
	}
	// The scan completes (discardable result, no hang, no leak) even
	// when aborted before it starts.
	_ = ColumnEntropies(m, []int{1, 2})
}
