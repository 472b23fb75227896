// Benchmarks for the parallel trial engine: the same full Algorithm 1
// run on a ~5k-vertex heavy-tailed graph, sequential (Workers: 1)
// versus parallel (Workers: GOMAXPROCS). Both return bit-identical
// results — TestObfuscateBenchConfigEquivalence asserts it — so the two
// timings isolate the wall-clock effect of concurrent trials and the
// parallel adversary scan.
//
//	make bench-obfuscate   # both, 5 runs each, appended to BENCH_obfuscate.json
package uncertaingraph_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"uncertaingraph/internal/core"
	"uncertaingraph/internal/gen"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/randx"
)

var (
	parBenchOnce  sync.Once
	parBenchGraph *graph.Graph
)

// parallelBenchGraph is a dblp-like stand-in at ~5k vertices / ~15k
// edges — large enough that the adversary scan and candidate selection
// dominate, small enough for CI.
func parallelBenchGraph() *graph.Graph {
	parBenchOnce.Do(func() {
		parBenchGraph = gen.HolmeKim(randx.New(1), 5000, 3, 0.3)
	})
	return parBenchGraph
}

func benchObfuscate(b *testing.B, workers int) {
	g := parallelBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Obfuscate(context.Background(), g, core.Params{
			K: 10, Eps: 0.05, Trials: 5, Delta: 1e-4,
			Workers: workers, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sigma <= 0 {
			b.Fatal("degenerate sigma")
		}
	}
}

func BenchmarkObfuscateSequential(b *testing.B) { benchObfuscate(b, 1) }

func BenchmarkObfuscateParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Log("GOMAXPROCS=1: parallel timing degenerates to sequential plus overhead")
	}
	benchObfuscate(b, runtime.GOMAXPROCS(0))
}

// TestObfuscateBenchConfigEquivalence pins that the two benchmark
// configurations really measure the same computation: identical σ, ε̃,
// and work counters at the benchmark's full 5k-vertex size.
func TestObfuscateBenchConfigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-vertex obfuscation is beyond -short budget")
	}
	g := parallelBenchGraph()
	run := func(workers int) *core.Result {
		res, err := core.Obfuscate(context.Background(), g, core.Params{
			K: 10, Eps: 0.05, Trials: 5, Delta: 1e-4,
			Workers: workers, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if seq.Sigma != par.Sigma || seq.EpsTilde != par.EpsTilde ||
		seq.Generations != par.Generations || seq.Trials != par.Trials {
		t.Errorf("benchmark configs diverge: seq=(%v,%v,%d,%d) par=(%v,%v,%d,%d)",
			seq.Sigma, seq.EpsTilde, seq.Generations, seq.Trials,
			par.Sigma, par.EpsTilde, par.Generations, par.Trials)
	}
}
