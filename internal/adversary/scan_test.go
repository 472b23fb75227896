package adversary

import (
	"math"
	"testing"

	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/pbinom"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// referenceColumns is the column scan before the support bound: every
// vertex gets a freshly allocated law and folds every requested ω, in
// the scan's chunks and merge order. The support-bounded scan must
// reproduce it float for float.
func referenceColumns(g *uncertain.Graph, threshold int, omegas []int) (ent, bel map[int]float64) {
	type agg struct{ sum, max float64 }
	n := g.NumVertices()
	mergedE := make([]mathx.EntropyAccumulator, len(omegas))
	mergedB := make([]agg, len(omegas))
	for lo := 0; lo < n; lo += scanChunk {
		accE := make([]mathx.EntropyAccumulator, len(omegas))
		accB := make([]agg, len(omegas))
		for v := lo; v < min(lo+scanChunk, n); v++ {
			x := pbinom.New(g.IncidentProbs(v), threshold)
			for i, omega := range omegas {
				p := x.Prob(omega)
				accE[i].Add(p)
				accB[i].sum += p
				if p > accB[i].max {
					accB[i].max = p
				}
			}
		}
		for i := range omegas {
			mergedE[i].Merge(accE[i])
			mergedB[i].sum += accB[i].sum
			if accB[i].max > mergedB[i].max {
				mergedB[i].max = accB[i].max
			}
		}
	}
	ent, bel = make(map[int]float64), make(map[int]float64)
	for i, omega := range omegas {
		ent[omega] = mergedE[i].Entropy()
		bel[omega] = 0
		if mergedB[i].max > 0 {
			bel[omega] = mergedB[i].sum / mergedB[i].max
		}
	}
	return ent, bel
}

// scanFixture is a 1302-vertex release spanning three scan chunks, with
// exact-DP and CLT vertices under ExactThreshold 4, probabilities 0
// and 1 among the random ones, a CLT hub whose law is degenerate
// (σ = 0), and an isolated last vertex.
func scanFixture(t *testing.T) *uncertain.Graph {
	t.Helper()
	g := gen.HolmeKim(randx.New(31), 1300, 3, 0.3)
	rng := randx.New(32)
	var pairs []uncertain.Pair
	g.ForEachEdge(func(u, v int) {
		p := rng.Float64()
		switch len(pairs) % 17 {
		case 0:
			p = 0
		case 1:
			p = 1
		}
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
	})
	for v := 0; v < 6; v++ {
		pairs = append(pairs, uncertain.Pair{U: 1300, V: v, P: float64(v % 2)})
	}
	ug, err := uncertain.New(1302, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return ug
}

// plainModel hides UncertainModel's concrete type, so the scan takes
// its generic VertexX path (no support bound, no reused law).
type plainModel struct{ UncertainModel }

// TestSupportBoundedScanMatchesFullFold pins the exactness of the
// support-bounded, law-reusing scan: for an unsorted ω list with a
// repeat, a negative value and a value above every term count, both
// column measures equal the full-ω reference float for float, for
// every worker count, on the uncertain path and the generic path. So
// does every scan of a subset: each split of the sorted ω into up to
// three stages from the top, scanned as the staged check scans them
// (skipping vertices below each stage's least ω, reading the laws an
// earlier stage kept), and each single column.
func TestSupportBoundedScanMatchesFullFold(t *testing.T) {
	g := scanFixture(t)
	if g.IncidentCount(g.NumVertices()-1) != 0 {
		t.Fatal("fixture lost its isolated vertex")
	}
	omegas := []int{7, 3, -1, 0, 12, 3, 5, 1 << 20, 2, 1, 40, 6, 4, 25}
	const threshold = 4
	wantE, wantB := referenceColumns(g, threshold, omegas)
	for _, workers := range []int{1, 2, 7} {
		um := UncertainModel{G: g, ExactThreshold: threshold, Workers: workers}
		for name, m := range map[string]Model{"uncertain": um, "generic": plainModel{um}} {
			gotE := ColumnEntropies(m, omegas)
			gotB := ColumnBeliefLevels(m, omegas)
			for _, omega := range omegas {
				if math.Float64bits(gotE[omega]) != math.Float64bits(wantE[omega]) {
					t.Errorf("%s workers=%d ω=%d: entropy %v, full fold %v", name, workers, omega, gotE[omega], wantE[omega])
				}
				if math.Float64bits(gotB[omega]) != math.Float64bits(wantB[omega]) {
					t.Errorf("%s workers=%d ω=%d: belief level %v, full fold %v", name, workers, omega, gotB[omega], wantB[omega])
				}
			}
		}
	}
	cols := DistinctValues(omegas)
	same := func(what string, workers int, stage []int, got []float64) {
		t.Helper()
		for i, omega := range stage {
			if math.Float64bits(got[i]) != math.Float64bits(wantE[omega]) {
				t.Errorf("%s workers=%d ω=%d: entropy %v, full fold %v", what, workers, omega, got[i], wantE[omega])
			}
		}
	}
	for _, workers := range []int{1, 2, 7} {
		um := UncertainModel{G: g, ExactThreshold: threshold, Workers: workers}
		var sc checkScratch
		for i := 0; i <= len(cols); i++ {
			for j := i; j <= len(cols); j++ {
				var stages [][]int
				for _, stage := range [][]int{cols[j:], cols[i:j], cols[:i]} {
					if len(stage) > 0 {
						stages = append(stages, stage)
					}
				}
				sc.reset(g.NumVertices())
				for s, stage := range stages {
					sc.keep = s < len(stages)-1
					same("staged", workers, stage, columnEntropies(um, stage, &sc, nil))
				}
			}
		}
		for _, omega := range omegas {
			same("single", workers, []int{omega}, columnEntropies(um, []int{omega}, nil, nil))
			if got := ColumnBeliefLevels(um, []int{omega})[omega]; math.Float64bits(got) != math.Float64bits(wantB[omega]) {
				t.Errorf("single workers=%d ω=%d: belief level %v, full fold %v", workers, omega, got, wantB[omega])
			}
		}
	}
	if wantE[-1] != 0 || wantE[1<<20] != 0 || wantB[1<<20] != 0 {
		t.Error("columns outside every support must carry no mass")
	}
}
