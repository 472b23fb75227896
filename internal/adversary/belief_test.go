package adversary

import (
	"math"
	"runtime"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

func TestBeliefLevelsFigure1(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	cols := ColumnBeliefLevels(m, []int{1, 2, 3})
	// Column deg=3: Y = (0.9, 0.1, 0, 0) -> level 1/0.9.
	if want := 1 / 0.9; math.Abs(cols[3]-want) > 1e-9 {
		t.Errorf("belief level (deg=3) = %v, want %v", cols[3], want)
	}
	// Column deg=1: Y ~ (0.064, 0.242, 0.181, 0.514) -> 1/0.514.
	if cols[1] < 1.9 || cols[1] > 2.0 {
		t.Errorf("belief level (deg=1) = %v, want ~1.945", cols[1])
	}
}

func TestEntropyDominatesBelief(t *testing.T) {
	// Bonchi et al.'s theorem: the entropy-based obfuscation level
	// 2^H(Y) is at least the belief level 1/max Y (Shannon entropy is
	// bounded below by min-entropy). Check on the paper example and on
	// a randomized uncertain graph.
	check := func(m Model, values []int) {
		t.Helper()
		entLevels := ObfuscationLevels(m, values)
		belLevels := BeliefLevels(m, values)
		for v := range values {
			if entLevels[v] < belLevels[v]-1e-9 {
				t.Fatalf("vertex %d: entropy level %v below belief level %v",
					v, entLevels[v], belLevels[v])
			}
		}
	}
	check(UncertainModel{G: figure1b(t)}, originalDegrees)

	g := gen.HolmeKim(randx.New(3), 300, 3, 0.3)
	rng := randx.New(4)
	pairs := make([]uncertain.Pair, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int) {
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: 0.3 + 0.7*rng.Float64()})
	})
	ugr, err := uncertain.New(g.NumVertices(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	check(UncertainModel{G: ugr}, g.Degrees())
}

func TestBeliefOnCertainGraphIsCrowdSize(t *testing.T) {
	// Certain graph: Y uniform over the crowd, so belief level = crowd
	// size = entropy level.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})
	m := UncertainModel{G: uncertain.FromCertain(g)}
	levels := BeliefLevels(m, []int{1, 1, 1, 1, 1, 1})
	for v, l := range levels {
		if math.Abs(l-6) > 1e-9 {
			t.Errorf("vertex %d belief level %v, want 6", v, l)
		}
	}
}

func TestBeliefLevelsEmpty(t *testing.T) {
	m := UncertainModel{G: figure1b(t)}
	if got := ColumnBeliefLevels(m, nil); len(got) != 0 {
		t.Error("no columns should give empty map")
	}
}

// TestBeliefLevelsGOMAXPROCSBitIdentity pins the belief scan's
// determinism: on a graph spanning several 512-vertex scan chunks, the
// per-vertex levels are bit-identical for every GOMAXPROCS, because the
// chunk boundaries and their merge order never depend on it.
func TestBeliefLevelsGOMAXPROCSBitIdentity(t *testing.T) {
	g := gen.HolmeKim(randx.New(21), 1300, 3, 0.3)
	rng := randx.New(22)
	pairs := make([]uncertain.Pair, 0, g.NumEdges())
	g.ForEachEdge(func(u, v int) {
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: 0.2 + 0.8*rng.Float64()})
	})
	ugr, err := uncertain.New(g.NumVertices(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	m := UncertainModel{G: ugr}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []float64
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		got := BeliefLevels(m, g.Degrees())
		if want == nil {
			want = got
			continue
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("GOMAXPROCS %d: vertex %d belief level %v, GOMAXPROCS 1 gives %v", procs, v, got[v], want[v])
			}
		}
	}
}
