package query

import "testing"

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

// BenchmarkSingleQueries is the contrast case: the same 24 queries
// served one at a time through the one-shot Engine layer, each call
// sampling its own 64 worlds. The gap against BenchmarkBatchQueries is
// the point of the batch engine — shared worlds and shared BFS trees.
func BenchmarkSingleQueries(b *testing.B) {
	g := dblpUncertain(b)
	e := &Engine{G: g, Worlds: 64, Workers: 1}
	e.Reliability(0, 31) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc float64
		for j := 0; j < 8; j++ {
			s, t := 17*j, 23*j+31
			acc += e.Reliability(s, t)
			acc += float64(e.MedianDistance(s, t))
			e.KNearest(s, 10)
		}
		benchSink = acc
	}
}
