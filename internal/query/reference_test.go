package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/uncertain"
	"uncertaingraph/internal/worldloop"
)

// The per-world engine the packed walk replaced, kept as the reference
// the packed engine must equal count for count: each world is
// materialized as a CSR graph and walked by one queue BFS per source.

// refScanner adapts a Batch to worldloop.Scanner on the per-world
// engine, with one BFS scratch per lane: it draws each world of a
// group with SampleSeed and walks it with the queue BFS.
type refScanner struct {
	b       *Batch
	scratch []*bfs.Scratch
}

func (r *refScanner) ScanGroup(lane, _ int, seeds []int64, sampler *uncertain.Sampler) {
	for _, seed := range seeds {
		r.b.scanWorld(r.b.ws[lane], r.scratch[lane], sampler.SampleSeed(seed))
	}
}

func (r *refScanner) Converged(lanes, done int) bool {
	return r.b.allConverged(lanes, done)
}

// scanWorld runs one BFS per distinct source over a materialized
// world and folds every query's observation into w's integer
// accumulators.
func (b *Batch) scanWorld(w *worker, scratch *bfs.Scratch, world *graph.Graph) {
	n := world.NumVertices()
	for si, s := range b.sources {
		// A source whose queries all name explicit targets stops its
		// BFS once the last target resolves; a k-NN source needs every
		// component distance, so it runs the full walk. Both walks
		// agree bit-for-bit on every registered target.
		var dist []int32
		if b.knnSlots[si] >= 0 || b.fullBFS {
			dist = scratch.FromSourceInto(world, int(s))
		} else {
			dist = scratch.FromSourceTargetsInto(world, int(s), b.srcTargets[si])
		}
		for _, id := range b.srcQueries[si] {
			q := &b.queries[id]
			switch q.kind {
			case qReliability:
				if dist[q.t] >= 0 {
					w.rel[q.slot]++
				}
			case qDistance:
				if d := dist[q.t]; d < 0 {
					w.disc[q.slot]++
				} else {
					h := growCounts(w.distH[q.slot], int(d)+1)
					h[d]++
					w.distH[q.slot] = h
				}
			}
		}
		// The k-NN histogram is a property of the source alone; fill it
		// once per world, shared by every k-NN query with this source.
		if slot := b.knnSlots[si]; slot >= 0 {
			maxd := int32(-1)
			for _, d := range dist {
				if d > maxd {
					maxd = d
				}
			}
			if maxd >= 0 {
				h := growCounts(w.knnH[slot], (int(maxd)+1)*n)
				for v, d := range dist {
					if d >= 0 {
						h[int(d)*n+v]++
					}
				}
				w.knnH[slot] = h
			}
		}
	}
}

// runReference is Batch.Run on the per-world engine.
func runReference(tb testing.TB, b *Batch) {
	tb.Helper()
	b.ran = false
	workers := worldloop.Workers(b.Workers, b.worlds())
	ref := &refScanner{b: b}
	for range workers {
		ref.scratch = append(ref.scratch, bfs.NewScratch())
	}
	if err := b.run(context.Background(), workers, ref); err != nil {
		tb.Fatal(err)
	}
}

// diffResults reports the first difference between two runs' merged
// accumulators, histogram lengths included, or "" when they agree.
func diffResults(got, want *Results) string {
	if got.worldsRun != want.worldsRun || got.converged != want.converged {
		return fmt.Sprintf("worlds %d converged %v, want %d %v", got.worldsRun, got.converged, want.worldsRun, want.converged)
	}
	if d := diffCounts("relHits", got.relHits, want.relHits); d != "" {
		return d
	}
	if d := diffCounts("distDisc", got.distDisc, want.distDisc); d != "" {
		return d
	}
	for _, hs := range []struct {
		name      string
		got, want [][]int32
	}{{"distHist", got.distHist, want.distHist}, {"knnHist", got.knnHist, want.knnHist}} {
		if len(hs.got) != len(hs.want) {
			return fmt.Sprintf("%d %s slots, want %d", len(hs.got), hs.name, len(hs.want))
		}
		for i := range hs.got {
			if d := diffCounts(fmt.Sprintf("%s[%d]", hs.name, i), hs.got[i], hs.want[i]); d != "" {
				return d
			}
		}
	}
	return ""
}

func diffCounts[T int32 | int64](name string, got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len(%s) = %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return ""
}

// packedFixture draws a random uncertain graph on n vertices whose
// last isolated vertices have no candidate pair, with certain (p = 1),
// impossible (p = 0) and fractional pairs.
func packedFixture(tb testing.TB, rng *rand.Rand, n, isolated int) *uncertain.Graph {
	tb.Helper()
	live := n - isolated
	seen := make(map[[2]int]bool)
	var pairs []uncertain.Pair
	for m := live + rng.Intn(2*live); len(pairs) < m; {
		u, v := rng.Intn(live), rng.Intn(live)
		if u == v || seen[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		p := float64(1+rng.Intn(19)) / 20
		switch rng.Intn(8) {
		case 0:
			p = 1
		case 1:
			p = 0
		}
		pairs = append(pairs, uncertain.Pair{U: u, V: v, P: p})
	}
	g, err := uncertain.New(n, pairs)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// packedMix registers one of the equivalence test's query mixes on b.
// "mixed" puts a k-NN, a reliability and a distance query on one
// source, with t == s, duplicate targets and an isolated endpoint;
// "reliability" and "distance" are single-kind mixes an adaptive run
// may stop early on.
func packedMix(b *Batch, mix string, rng *rand.Rand) {
	n := b.g.NumVertices()
	iso := n - 1 // an isolated vertex
	a, c := rng.Intn(n-2), rng.Intn(n-2)
	switch mix {
	case "mixed":
		b.AddKNearest(a, 5)
		b.AddReliability(a, c)
		b.AddDistance(a, c)
		b.AddDistance(a, a)
		b.AddReliability(a, a)
		b.AddReliability(c, a)
		b.AddReliability(c, a)
		b.AddDistance(c, a)
		b.AddDistance(c, a)
		b.AddDistance(c, iso)
		b.AddReliability(iso, a)
		b.AddKNearest(iso, 3)
		b.AddKNearest(c, n)
		for _, q := range randomMix(rng, n) {
			switch q.op {
			case qReliability:
				b.AddReliability(q.s, q.t)
			case qDistance:
				b.AddDistance(q.s, q.t)
			case qKNearest:
				b.AddKNearest(q.s, q.k)
			}
		}
	case "reliability":
		b.AddReliability(a, a)
		b.AddReliability(a, c)
		b.AddReliability(c, a)
		b.AddReliability(c, c)
	case "distance":
		b.AddDistance(a, a)
		b.AddDistance(a, c)
		b.AddDistance(c, c)
	}
}

// TestPackedMatchesPerWorldReference pins the packed engine to the
// per-world engine it replaced: for every world budget around the
// group and block sizes, several worker counts, fixed and adaptive
// runs, and with the early exit on and off, every merged accumulator —
// histogram lengths included — plus WorldsRun and Converged must be
// equal. Short mode (the race run) keeps a subset that still spreads
// groups over several lanes.
func TestPackedMatchesPerWorldReference(t *testing.T) {
	worlds := []int{1, 2, 31, 32, 33, 63, 64, 65, 129, 738}
	workers := []int{1, 2, 3, 7}
	if testing.Short() {
		worlds = []int{2, 33, 65, 129}
		workers = []int{1, 3}
	}
	type run struct {
		mix       string
		tolerance float64
	}
	runs := []run{{"mixed", 0}, {"reliability", 0.05}, {"distance", 0.05}}
	rng := rand.New(rand.NewSource(18))
	stoppedEarly := 0
	for gi := 0; gi < 3; gi++ {
		g := packedFixture(t, rng, 12+rng.Intn(40), 1+rng.Intn(3))
		for _, r := range runs {
			mixSeed := rng.Int63()
			for _, wr := range worlds {
				for _, wk := range workers {
					for _, full := range []bool{false, true} {
						cfg := Config{Worlds: wr, Seed: int64(gi*1000 + wr), Workers: wk, Tolerance: r.tolerance}
						packed := NewBatch(g, cfg)
						packed.fullBFS = full
						packedMix(packed, r.mix, rand.New(rand.NewSource(mixSeed)))
						mustRun(t, packed)
						ref := NewBatch(g, cfg)
						ref.fullBFS = full
						packedMix(ref, r.mix, rand.New(rand.NewSource(mixSeed)))
						runReference(t, ref)
						if d := diffResults(packed.Snapshot(), ref.Snapshot()); d != "" {
							t.Fatalf("graph %d, %s mix, tolerance %v, worlds %d, workers %d, fullBFS %v: %s",
								gi, r.mix, r.tolerance, wr, wk, full, d)
						}
						if packed.Converged() && packed.WorldsRun() < wr {
							stoppedEarly++
						}
					}
				}
			}
		}
	}
	// The adaptive runs must exercise block barriers short of the
	// budget, or a group crossing a barrier could go unseen.
	if stoppedEarly == 0 {
		t.Error("no adaptive run stopped before its budget; the barrier check is vacuous")
	}
	t.Logf("%d runs stopped early at a block barrier", stoppedEarly)
}
