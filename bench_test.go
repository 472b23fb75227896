// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7), one benchmark per artifact, on the
// small-scale dataset stand-ins, plus component microbenchmarks for the
// pipeline's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The printed tables of a full run come from cmd/experiments; these
// benchmarks measure the cost of producing each artifact.
package uncertaingraph_test

import (
	"context"
	"testing"

	ug "uncertaingraph"
	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/anf"
	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/experiments"
	"uncertaingraph/internal/sampling"
	"uncertaingraph/internal/stats"
	"uncertaingraph/internal/uncertain"
)

// benchSuite builds a suite sized for benchmarking: tiny datasets,
// exact-BFS distances (deterministic work), modest sampling.
func benchSuite(b *testing.B) *experiments.Suite {
	s, err := experiments.NewSuite(experiments.Options{
		Scale:           datasets.ScaleTiny,
		Worlds:          10,
		Trials:          2,
		Delta:           1e-4,
		BaselineSamples: 5,
		Distances:       sampling.DistanceExactBFS,
		Seed:            11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable2Sigma regenerates Table 2: the minimal sigma grid over
// datasets x k x eps. (Table 3 reuses these same runs.)
func BenchmarkTable2Sigma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Table2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Throughput regenerates the Table 3 view (edges/sec),
// measuring one full Algorithm 1 run on the dblp stand-in.
func BenchmarkTable3Throughput(b *testing.B) {
	s := benchSuite(b)
	d, err := s.Dataset("dblp")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Obfuscate(context.Background(), d.Graph, core.Params{
			K: 10, Eps: 0.08, Trials: 2, Delta: 1e-4, Seed: ug.NewRand(int64(i)).Int63(),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Sigma
	}
}

// BenchmarkTable4Utility regenerates Table 4: statistic means over
// sampled worlds for every dataset and k.
func BenchmarkTable4Utility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Table4(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5SEM regenerates Table 5 (relative SEMs; same sampling
// pipeline as Table 4, different aggregation).
func BenchmarkTable5SEM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Table5(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Baselines regenerates Table 6: utility of obfuscation
// vs random perturbation and sparsification at matched anonymity.
func BenchmarkTable6Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Table6(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Distances regenerates Figure 2: boxplots of the
// pairwise-distance distribution across worlds.
func BenchmarkFigure2Distances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Figure2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Degrees regenerates Figure 3: boxplots of the degree
// distribution across worlds.
func BenchmarkFigure3Degrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Figure3(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Anonymity regenerates Figure 4: anonymity-level CDFs
// of original, obfuscated and baseline publications.
func BenchmarkFigure4Anonymity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := experiments.Figure4(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component microbenchmarks (pipeline hot paths) ---

func benchGraph(b *testing.B) *ug.Graph {
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	return d.Graph
}

func benchUncertain(b *testing.B) *uncertain.Graph {
	g := benchGraph(b)
	att := core.GenerateObfuscation(g, 0.2, core.Params{
		K: 5, Eps: 0.3, Trials: 1, Seed: 6640668014774057861,
	})
	if att.Failed() {
		b.Fatal("bench obfuscation failed")
	}
	return att.G
}

// BenchmarkGenerateObfuscation measures one Algorithm 2 attempt
// (candidate selection + probability assignment + adversary check).
func BenchmarkGenerateObfuscation(b *testing.B) {
	g := benchGraph(b)
	params := core.Params{K: 5, Eps: 0.3, Trials: 1, Seed: 2244708090865615074}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GenerateObfuscation(g, 0.2, params)
	}
}

// BenchmarkAdversaryCheck measures the (k,eps) verification: per-vertex
// Poisson-binomial degree distributions + column entropies.
func BenchmarkAdversaryCheck(b *testing.B) {
	g := benchGraph(b)
	u := benchUncertain(b)
	degrees := g.Degrees()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adversary.NotObfuscatedFraction(adversary.UncertainModel{G: u}, degrees, 5)
	}
}

// BenchmarkSampleWorld measures possible-world materialization.
func BenchmarkSampleWorld(b *testing.B) {
	u := benchUncertain(b)
	rng := ug.NewRand(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.SampleWorld(rng)
	}
}

// BenchmarkHyperANF measures a full neighbourhood-function run.
func BenchmarkHyperANF(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anf.DistanceDistribution(g, anf.Options{Seed: uint64(i)})
	}
}

// BenchmarkExactBFS measures the exact all-sources distance oracle.
func BenchmarkExactBFS(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.DistanceDistribution(g)
	}
}

// BenchmarkTriangleCount measures S_CC's triangle counting.
func BenchmarkTriangleCount(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.CountTriangles(g)
	}
}

// BenchmarkWorldStatistics measures the full ten-statistic evaluation
// of one sampled world.
func BenchmarkWorldStatistics(b *testing.B) {
	u := benchUncertain(b)
	cfg := sampling.Config{Distances: sampling.DistanceExactBFS}
	rng := ug.NewRand(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := u.SampleWorld(rng)
		sampling.ScalarsOf(w, cfg, int64(i))
	}
}
