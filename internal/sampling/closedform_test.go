package sampling

import (
	"context"
	"math"
	"testing"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/stats"
)

// TestRunMatchesClosedForms checks the statistics pipeline at
// cmd/evaluate's shape (100 worlds of evaluateRelease, seed 1) against
// the paper's §6.2 closed forms: the mean of Run's S_DV samples against
// E[S_DV], and the mean per-world triangle count T3 and connected-triple
// count T2 of RunVector's worlds against E[T3] and E[T2]. Each mean
// must lie within 4 standard errors (sample SD/√r) of its closed form;
// for a normal mean a miss has probability 6.3e-5. S_CC = T3/T2 is
// left out: the mean of a ratio is not the ratio of the expectations.
func TestRunMatchesClosedForms(t *testing.T) {
	rel := evaluateRelease(t)
	cfg := Config{Worlds: 100, Seed: 1}
	rep, err := Run(context.Background(), rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunVector(context.Background(), rel, cfg, func(g *graph.Graph, _ int64) []float64 {
		t3 := stats.CountTriangles(g)
		return []float64{stats.DegreeVariance(g), float64(t3), float64(stats.ConnectedTriplesGiven(g, t3))}
	})
	if err != nil {
		t.Fatal(err)
	}
	dv, t3, t2 := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
	for i, row := range rows {
		dv[i], t3[i], t2[i] = row[0], row[1], row[2]
	}
	// Run and RunVector draw the same worlds from the same seed.
	for i, v := range rep.Samples["S_DV"] {
		if dv[i] != v {
			t.Fatalf("world %d: Run's S_DV %v, RunVector's %v", i, v, dv[i])
		}
	}
	for _, c := range []struct {
		name    string
		samples []float64
		exact   float64
	}{
		{"S_DV", rep.Samples["S_DV"], rel.ExpectedDegreeVariance()},
		{"T3", t3, rel.ExpectedTriangles()},
		{"T2", t2, rel.ExpectedConnectedTriples()},
	} {
		if r := len(c.samples); r != 100 {
			t.Fatalf("%s: %d worlds, want 100", c.name, r)
		}
		mean, sd := mathx.MeanStd(c.samples)
		se := sd / math.Sqrt(100)
		t.Logf("%s: mean %.6g, closed form %.6g, error %.2f SE", c.name, mean, c.exact, (mean-c.exact)/se)
		if !(math.Abs(mean-c.exact) <= 4*se) {
			t.Errorf("%s: mean %v is %.2f SE from the closed form %v, want at most 4", c.name, mean, math.Abs(mean-c.exact)/se, c.exact)
		}
	}
}
