package query

import (
	"testing"

	"uncertaingraph/internal/core"
	"uncertaingraph/internal/datasets"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// benchSink keeps the compiler from eliding result extraction.
var benchSink float64

// BenchmarkBatchQueries measures the serving hot path: one reusable
// batch carrying a request-shaped mix of queries (8 sources, each with
// a reliability, a distance and a k-NN query), re-run with a fresh
// seed per iteration. After the first Run has grown the buffers, the
// per-world loop — reseed, sample, one BFS per source, integer
// accumulation — performs zero heap allocations, which ReportAllocs
// pins in BENCH_query.json via `make bench-query`.
func BenchmarkBatchQueries(b *testing.B) {
	g := dblpUncertain(b)
	batch := NewBatch(g, Config{Worlds: 64, Workers: 1})
	var relIDs, distIDs, knnIDs []int
	for i := 0; i < 8; i++ {
		s, t := 17*i, 23*i+31
		relIDs = append(relIDs, batch.AddReliability(s, t))
		distIDs = append(distIDs, batch.AddDistance(s, t))
		knnIDs = append(knnIDs, batch.AddKNearest(s, 10))
	}
	// Warm up over the whole seed cycle: histograms grow once per
	// never-seen max distance, so visiting every seed beforehand leaves
	// the measured loop allocation-free.
	const seedCycle = 16
	for i := 0; i < seedCycle; i++ {
		batch.Seed = int64(i)
		mustRun(b, batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Seed = int64(i % seedCycle)
		mustRun(b, batch)
		benchSink = batch.Reliability(relIDs[0]) + float64(batch.MedianDistance(distIDs[0]))
	}
	_ = knnIDs
}

// reliabilityOnlyBatch builds the early-exit showcase batch: 8 sources
// carrying one reliability query each and nothing else, so every
// per-world BFS may stop at its single target instead of scanning the
// source's whole component.
func reliabilityOnlyBatch(b *testing.B, fullBFS bool) *Batch {
	g := dblpUncertain(b)
	batch := NewBatch(g, Config{Worlds: 64, Workers: 1})
	batch.fullBFS = fullBFS
	for i := 0; i < 8; i++ {
		batch.AddReliability(17*i, 23*i+31)
	}
	const seedCycle = 16
	for i := 0; i < seedCycle; i++ {
		batch.Seed = int64(i)
		mustRun(b, batch)
	}
	return batch
}

// BenchmarkBatchReliabilityOnly measures the target-resolved early
// exit on a reliability-only mix (the ROADMAP's "restore the
// connected() fast path" item): each of the 8 per-world BFS walks
// stops as soon as its target resolves. Compare against
// BenchmarkBatchReliabilityOnlyFullBFS — the identical batch with the
// exit disabled — in BENCH_query.json; the answers are bit-identical.
func BenchmarkBatchReliabilityOnly(b *testing.B) {
	batch := reliabilityOnlyBatch(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Seed = int64(i % 16)
		mustRun(b, batch)
		benchSink = batch.Reliability(0)
	}
}

// BenchmarkBatchReliabilityOnlyFullBFS is the early-exit contrast
// case: the same reliability-only mix forced through whole-component
// walks, i.e. the pre-early-exit engine.
func BenchmarkBatchReliabilityOnlyFullBFS(b *testing.B) {
	batch := reliabilityOnlyBatch(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Seed = int64(i % 16)
		mustRun(b, batch)
		benchSink = batch.Reliability(0)
	}
}

// serveRequest is one request of the serve-shaped benchmark: its
// queries (kind, source, target), its world seed and its tolerance (0
// for a fixed run).
type serveRequest struct {
	queries   []qmeta
	seed      int64
	tolerance float64
}

// serveShapedFixture builds the serving shape queryd runs in
// production: a dblp-tiny release obfuscated the way the end-to-end
// harness releases its tenants (one Algorithm 2 probe at σ 0.3,
// k 10, ε 0.1), and a fixed, seeded cycle of requests drawn as the
// harness's serve-novel mix draws them. A request is 1–4 queries, each
// a reliability, distance or 10-NN query with probability 1/3 over
// uniform vertices, with t ≠ s. With probability 1/4, unless its
// predecessor was itself one, a request instead re-asks its
// predecessor's queries, on the same worlds, with tolerance 0.05: an
// adaptive run in 32-world blocks that may stop short of the budget.
func serveShapedFixture(b *testing.B) (*uncertain.Graph, []serveRequest) {
	d, err := datasets.Generate(datasets.Specs[0], datasets.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	att := core.GenerateObfuscation(d.Graph, 0.3, core.Params{K: 10, Eps: 0.1, Seed: 1})
	if att.Failed() {
		b.Fatal("no (k=10, eps=0.1)-obfuscation of dblp tiny at sigma 0.3")
	}
	n := att.G.NumVertices()
	rng := randx.New(17)
	reqs := make([]serveRequest, 16)
	for i := range reqs {
		if i > 0 && reqs[i-1].tolerance == 0 && rng.Float64() < 0.25 {
			reqs[i] = reqs[i-1]
			reqs[i].tolerance = 0.05
			continue
		}
		qs := make([]qmeta, 1+rng.Intn(4))
		for j := range qs {
			q := qmeta{kind: qkind(rng.Intn(3)), s: int32(rng.Intn(n)), k: 10}
			if q.kind != qKNearest {
				q.t = (q.s + 1 + int32(rng.Intn(n-1))) % int32(n)
			}
			qs[j] = q
		}
		reqs[i] = serveRequest{queries: qs, seed: rng.Int63()}
	}
	return att.G, reqs
}

// BenchmarkBatchServeShaped measures one queryd cache miss at its
// shipped shape: DefaultWorlds (738) worlds on one worker over the
// release above, each op one request of the cycle — tolerance re-asks
// included — run through one reused batch with Reset between requests
// as a pooled batch is. Run it with -benchtime 16x to cover the cycle
// once per measurement.
func BenchmarkBatchServeShaped(b *testing.B) {
	g, reqs := serveShapedFixture(b)
	batch := NewBatch(g, Config{Worlds: DefaultWorlds(), Workers: 1})
	run := func(r serveRequest) {
		batch.Reset()
		for _, q := range r.queries {
			switch q.kind {
			case qReliability:
				batch.AddReliability(int(q.s), int(q.t))
			case qDistance:
				batch.AddDistance(int(q.s), int(q.t))
			case qKNearest:
				batch.AddKNearest(int(q.s), int(q.k))
			}
		}
		batch.Seed = r.seed
		batch.Tolerance = r.tolerance
		mustRun(b, batch)
	}
	run(reqs[0]) // builds the sampling template and the walker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(reqs[i%len(reqs)])
	}
}
