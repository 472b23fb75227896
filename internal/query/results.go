package query

import (
	"fmt"
	"slices"
)

// Results is a completed Run's answer set, detached from the Batch that
// computed it: the registered query list, the merged integer
// accumulators and the run's worlds/convergence outcome. A Batch's own
// accessors delegate to a live (aliasing) view; Snapshot returns a deep
// copy that stays valid after the batch is Reset or returned to a
// BatchPool — the serving layer snapshots a pooled batch's results,
// releases the batch immediately, and renders (or caches) the answer
// from the snapshot. All accessors are read-only, so a snapshot is safe
// for concurrent use; the ranking scratch makes KNearest* the one
// exception (serialize those per Results value).
type Results struct {
	queries   []qmeta
	n         int // graph vertex count (k-NN histograms are d-major over it)
	relHits   []int64
	distDisc  []int64
	distHist  [][]int32
	knnHist   [][]int32
	worldsRun int
	converged bool

	cands []cand // ranking scratch, reused across KNearest* calls
}

// Snapshot deep-copies the last successful Run's results out of the
// batch. It panics before the first Run (or after a cancelled one),
// exactly like the result accessors.
func (b *Batch) Snapshot() *Results {
	v := b.view()
	s := &Results{
		queries:   slices.Clone(v.queries),
		n:         v.n,
		relHits:   slices.Clone(v.relHits),
		distDisc:  slices.Clone(v.distDisc),
		worldsRun: v.worldsRun,
		converged: v.converged,
	}
	s.distHist = cloneHists(v.distHist)
	s.knnHist = cloneHists(v.knnHist)
	return s
}

func cloneHists(hs [][]int32) [][]int32 {
	out := make([][]int32, len(hs))
	for i, h := range hs {
		out[i] = slices.Clone(h)
	}
	return out
}

// view returns the batch's results, which alias its merged
// accumulators. The view is only valid until the next Run or Reset;
// Snapshot copies it out.
func (b *Batch) view() *Results {
	if !b.ran {
		panic("query: result accessed before Run")
	}
	return &b.res
}

// MemoryBytes reports the payload bytes the snapshot retains — what a
// result cache should charge an entry that stores it.
func (r *Results) MemoryBytes() int64 {
	total := int64(len(r.queries))*16 + int64(len(r.relHits))*8 + int64(len(r.distDisc))*8
	for _, h := range r.distHist {
		total += int64(len(h)) * 4
	}
	for _, h := range r.knnHist {
		total += int64(len(h)) * 4
	}
	return total
}

// NumQueries returns the number of registered queries the run answered.
func (r *Results) NumQueries() int { return len(r.queries) }

// WorldsRun returns the number of worlds the run sampled: the fixed
// count, or fewer when Tolerance stopped it early.
func (r *Results) WorldsRun() int { return r.worldsRun }

// Converged reports whether every query's relative SEM was inside the
// run's tolerance when it stopped (always false for fixed runs and
// batches carrying a k-NN query).
func (r *Results) Converged() bool { return r.converged }

func (r *Results) query(id int, kind qkind) *qmeta {
	if id < 0 || id >= len(r.queries) {
		panic(fmt.Sprintf("query: id %d out of range", id))
	}
	q := &r.queries[id]
	if q.kind != kind {
		panic(fmt.Sprintf("query: id %d is not a %v query", id, kind))
	}
	return q
}

// Reliability returns the estimated two-terminal reliability of query
// id (registered via AddReliability).
func (r *Results) Reliability(id int) float64 {
	q := r.query(id, qReliability)
	return float64(r.relHits[q.slot]) / float64(r.worldsRun)
}

// DistanceDistribution returns the estimated distribution of
// dist(s, t) — dist[d] = Pr(dist = d) — plus the disconnection
// probability, for query id (registered via AddDistance).
func (r *Results) DistanceDistribution(id int) (dist map[int]float64, disconnected float64) {
	q := r.query(id, qDistance)
	h := r.distHist[q.slot]
	rr := float64(r.worldsRun)
	dist = make(map[int]float64)
	for d, c := range h {
		if c > 0 {
			dist[d] = float64(c) / rr
		}
	}
	return dist, float64(r.distDisc[q.slot]) / rr
}

// MedianDistance returns the count-rule median of dist(s, t) for query
// id (registered via AddDistance); see Batch.MedianDistance.
func (r *Results) MedianDistance(id int) int {
	q := r.query(id, qDistance)
	return medianOfCounts(r.distHist[q.slot], r.worldsRun)
}

// KNearest returns the k vertices with the smallest median distance to
// the query source (excluding the source), ties broken by vertex id,
// for query id (registered via AddKNearest).
func (r *Results) KNearest(id int) []int {
	cands := r.knnRank(id)
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}

// KNearestWithMedians is KNearest with each neighbour's median distance
// attached.
func (r *Results) KNearestWithMedians(id int) []Neighbor {
	cands := r.knnRank(id)
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		out[i] = Neighbor{V: c.v, Median: c.median}
	}
	return out
}

// knnRank extracts per-vertex count-rule medians from the query's
// d-major histogram and returns the top k candidates; the returned
// slice aliases the results' ranking scratch.
func (r *Results) knnRank(id int) []cand {
	q := r.query(id, qKNearest)
	h := r.knnHist[q.slot]
	n := r.n
	half := (r.worldsRun + 1) / 2
	maxD := len(h) / n
	r.cands = r.cands[:0]
	for v := 0; v < n; v++ {
		if v == int(q.s) {
			continue
		}
		cum := 0
		for d := 0; d < maxD; d++ {
			if cum += int(h[d*n+v]); cum >= half {
				r.cands = append(r.cands, cand{v: v, median: d})
				break
			}
		}
	}
	sortCands(r.cands)
	if k := int(q.k); k < len(r.cands) {
		return r.cands[:k]
	}
	return r.cands
}
