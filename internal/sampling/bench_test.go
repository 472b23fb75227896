package sampling

// Benchmarks for the possible-world engine. `make bench-sampling` runs
// these and records the results in BENCH_sampling.json, next to the
// pre-refactor baseline, so the perf trajectory of the evaluation hot
// path stays visible across PRs.

import (
	"context"
	"testing"

	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

func benchPublished(b *testing.B) *uncertain.Graph {
	b.Helper()
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Obfuscate(context.Background(), d.Graph, core.Params{
		K: 5, Eps: 0.3, Trials: 2, Delta: 1e-4, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.G
}

func benchSeeds() []int64 {
	master := randx.New(7)
	seeds := make([]int64, 100)
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	return seeds
}

// BenchmarkSampleWorlds measures materializing 100 possible worlds
// (the paper's r) through one reused Sampler on the path the
// estimation pipeline's world loop takes, SampleSeed: a reseed, the
// coin pass and the CSR pass per world, with zero heap allocations.
func BenchmarkSampleWorlds(b *testing.B) {
	ug := benchPublished(b)
	seeds := benchSeeds()
	sampler := ug.NewSampler()
	// The first world allocates the sampler's CSR buffers; draw it
	// before the timer so allocs/op counts the warm loop alone.
	sampler.SampleSeed(seeds[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range seeds {
			sampler.SampleSeed(s)
		}
	}
}

// BenchmarkSampleWorldsNaive is the pre-engine form — a fresh graph
// materialized per world — kept as the in-tree comparison point for
// the Sampler's allocation savings.
func BenchmarkSampleWorldsNaive(b *testing.B) {
	ug := benchPublished(b)
	seeds := benchSeeds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range seeds {
			ug.SampleWorld(randx.New(s))
		}
	}
}

// BenchmarkEstimateStatistics measures the full Section 6.1 pipeline:
// sample 20 worlds and evaluate all ten statistics on each (exact BFS
// distances, so the work is deterministic).
func BenchmarkEstimateStatistics(b *testing.B) {
	ug := benchPublished(b)
	cfg := Config{Worlds: 20, Seed: 7, Distances: DistanceExactBFS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), ug, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateStatisticsANF is the same pipeline under the
// paper's HyperANF distance estimator, exercising the reused counter
// registers.
func BenchmarkEstimateStatisticsANF(b *testing.B) {
	ug := benchPublished(b)
	cfg := Config{Worlds: 20, Seed: 7, Distances: DistanceANF}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), ug, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateEvaluateShaped measures one estimate at the shape
// of e2ebench's evaluate workload, cmd/evaluate at its defaults: the
// (k=10, ε=0.02)-obfuscation of the dblp small stand-in (obfuscation
// seed 1), 100 worlds with HyperANF distances. It runs on one worker,
// so ns/op is the CPU one estimate costs; the other ANF benchmark runs
// 20 worlds of a far smaller release.
func BenchmarkEstimateEvaluateShaped(b *testing.B) {
	spec, err := datasets.ByName("dblp")
	if err != nil {
		b.Fatal(err)
	}
	d, err := datasets.Generate(spec, datasets.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Obfuscate(context.Background(), d.Graph, core.Params{K: 10, Eps: 0.02, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Worlds: 100, Seed: 1, Workers: 1, Distances: DistanceANF}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), res.G, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateAdaptive measures the adaptive pipeline on the
// published dblp fixture at the acceptance tolerance 0.05 — an
// easy-statistic mix where every relative SEM tightens fast — with a
// 100-world budget (the fixed estimation default). The worlds/op
// metric records how many worlds the run actually needed; the history
// in BENCH_sampling.json keeps it next to ns/op so the throughput win
// over the fixed default stays visible.
func BenchmarkEstimateAdaptive(b *testing.B) {
	ug := benchPublished(b)
	cfg := Config{Seed: 7, Distances: DistanceANF, Tolerance: 0.05, MaxWorlds: 100}
	b.ReportAllocs()
	b.ResetTimer()
	worlds := 0
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), ug, cfg)
		if err != nil {
			b.Fatal(err)
		}
		worlds = rep.WorldsUsed
	}
	b.ReportMetric(float64(worlds), "worlds/op")
}
