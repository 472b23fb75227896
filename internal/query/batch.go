// Package query answers analytical queries on published uncertain
// graphs, the consumption side of the paper's proposal: Section 1
// argues an uncertain publication is useful precisely because the
// uncertain-graph literature (reliability, k-nearest-neighbours,
// shortest paths — Potamias et al., Jin et al., cited in §1 and §6)
// can run on it directly.
//
// All queries are possible-world Monte Carlo with Hoeffding-bounded
// sample sizes (paper Lemma 2 / Corollary 1): indicators and bounded
// statistics concentrate after r = ln(2/δ)/(2ε²) worlds.
//
// Batch is the one entry: it samples each world once and evaluates
// many queries against it, sharing one BFS per distinct source per
// world, with zero heap allocations in the steady-state world loop.
// Worlds run on the shared world loop (internal/worldloop), which
// spends the worker budget across worlds; each world's walks run
// sequentially on its lane.
//
// Every median in this package — MedianDistance and the k-NN ranking
// alike — uses the same count-based rule: the smallest distance whose
// cumulative world count reaches ceil(r/2), with the disconnection
// bucket (+infinity) sorted last. The rule is exact integer
// arithmetic, so it cannot drift from float accumulation the way a
// "cumulative probability >= 0.5" walk does.
package query

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"uncertaingraph/internal/bfs"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/uncertain"
	"uncertaingraph/internal/worldloop"
)

// Config tunes a Batch run.
type Config struct {
	// Worlds is the Monte-Carlo sample size shared by every query in
	// the batch (0 selects the Hoeffding size for ±0.05 at 95%
	// confidence on indicator statistics, 738).
	Worlds int
	// Seed determines the sampled worlds: world i's RNG stream depends
	// only on (Seed, i), so results are reproducible and identical for
	// every Workers value.
	Seed int64
	// Workers bounds concurrent world evaluations (<= 0 selects
	// GOMAXPROCS; never more than the world count): each worker owns
	// one sampler (with its own reseedable source) and one BFS
	// scratch, and walks its worlds sequentially. Per-world
	// contributions are integer counts, so the merged results are
	// bit-identical for every value.
	Workers int
	// MemoryBudget, when positive, bounds the batch's accumulator
	// memory in bytes: Run rejects a query set whose worst-case k-NN
	// histogram footprint exceeds it (see WorstCaseAccumBytes) with a
	// *BudgetError wrapping ErrOverBudget, and Reset sheds retained
	// high-water histograms above it so a pooled batch cannot pin one
	// huge request's buffers forever. Zero disables both checks.
	MemoryBudget int64
	// Tolerance, when positive, makes Run adaptive: worlds are sampled
	// in fixed blocks, and the run stops at the first block barrier
	// where every registered query's relative SEM is at most Tolerance
	// (Worlds stays the budget the run may stop short of). Reliability
	// queries converge on their indicator mean, distance queries on the
	// per-world distance with disconnection mapped to the vertex count
	// (a finite upper bound on any world distance); k-NN rankings have
	// no scalar confidence interval, so a batch carrying one never
	// stops early. Zero disables adaptive stopping entirely.
	Tolerance float64
	// Progress, when non-nil, is invoked after each world completes
	// with the number of finished worlds and the total. Workers invoke
	// it concurrently; implementations must be safe for concurrent use
	// and must not block for long. Progress observation never affects
	// results.
	Progress func(done, total int)
}

// Batch evaluates many queries against one shared set of sampled
// possible worlds: each world is materialized once, one BFS runs per
// distinct query source per world, and every query with that source
// consumes the same distance array. This is the serving shape — a
// request carrying q queries costs r worlds + r·|sources| BFS runs
// instead of the q·r worlds answering one query at a time would
// spend, and the per-world loop allocates nothing once the buffers
// have grown (every accumulator is an integer count).
//
// Each source's BFS is target-resolved: a source carrying only
// reliability and distance queries stops its walk as soon as every
// registered target has been assigned a distance (generalizing the
// pre-batch connected() early exit), while a source with a k-NN query
// still scans its whole component — the per-vertex histogram needs
// every distance. The early exit consumes no randomness and BFS
// assigns final distances at discovery, so answers are bit-identical
// to the full-component walk for every Workers value.
//
// A Batch is reusable: Reset clears the registered queries while
// keeping the sampling template, worker buffers and accumulators, so a
// long-lived server pools Batches across requests. A Batch must not be
// used concurrently; concurrency lives inside Run (the Workers fan-out)
// and across independent Batches.
type Batch struct {
	// Worlds, Seed, Workers, Progress, MemoryBudget and Tolerance may
	// be adjusted between Run calls; see Config for their meaning.
	Worlds       int
	Seed         int64
	Workers      int
	Progress     func(done, total int)
	MemoryBudget int64
	Tolerance    float64

	g *uncertain.Graph

	// Query registry.
	queries           []qmeta
	nrel, ndist, nknn int
	sources           []int32 // distinct BFS sources, first-appearance order
	srcIndex          map[int32]int
	srcQueries        [][]int32 // per source slot: attached rel/dist query ids
	srcTargets        [][]int32 // per source slot: rel/dist target vertices
	knnSlots          []int32   // per source slot: shared k-NN histogram slot, -1 if none

	// fullBFS forces every per-world BFS to scan the source's whole
	// component, disabling the target-resolved early exit. It exists so
	// tests can pin that early-exit results are bit-identical to the
	// full reference walk.
	fullBFS bool

	// Run machinery, lazily built and reused across runs: the shared
	// world loop (seeds, samplers) and one accumulator set per lane.
	loop worldloop.Loop
	ws   []*worker

	// Merged results of the last Run.
	relHits   []int64
	distDisc  []int64
	distHist  [][]int32
	knnHist   [][]int32 // d-major: hist[d*n + v]
	worldsRun int
	converged bool
	ran       bool

	// res is the live results view the accessors delegate through; its
	// ranking scratch (an O(n) buffer bounded by the graph, not the
	// request) persists across runs and Resets.
	res Results
}

type qkind uint8

const (
	qReliability qkind = iota
	qDistance
	qKNearest
)

// qmeta is one registered query: its kind, its slot in the per-kind
// accumulator arrays, and its arguments.
type qmeta struct {
	kind    qkind
	slot    int32
	s, t, k int32
}

// worker bundles the per-lane state of one Run: the BFS scratch and
// integer accumulators for every registered query.
type worker struct {
	scratch *bfs.Scratch
	rel     []int64
	disc    []int64
	distH   [][]int32
	knnH    [][]int32
}

// NewBatch returns an empty batch over g. The sampling template and
// all per-lane buffers are built lazily on the first Run.
func NewBatch(g *uncertain.Graph, cfg Config) *Batch {
	return &Batch{
		g:            g,
		Worlds:       cfg.Worlds,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		Progress:     cfg.Progress,
		MemoryBudget: cfg.MemoryBudget,
		Tolerance:    cfg.Tolerance,
		srcIndex:     make(map[int32]int),
	}
}

// Graph returns the uncertain graph the batch queries.
func (b *Batch) Graph() *uncertain.Graph { return b.g }

// NumQueries returns the number of registered queries.
func (b *Batch) NumQueries() int { return len(b.queries) }

// Reset clears the registered queries while keeping every buffer, so a
// serving loop can reuse one Batch across requests without
// re-allocating accumulators or re-sorting the sampling template.
// When a MemoryBudget is set and the retained accumulators exceed it —
// a pooled batch that served one huge k-NN request keeps its
// high-water histograms otherwise — Reset sheds them back to zero; the
// sampling template, BFS scratch and O(n) ranking buffers (all bounded
// by the graph, not the request) are always kept.
func (b *Batch) Reset() {
	b.queries = b.queries[:0]
	b.nrel, b.ndist, b.nknn = 0, 0, 0
	b.sources = b.sources[:0]
	clear(b.srcIndex)
	for i := range b.srcQueries {
		b.srcQueries[i] = b.srcQueries[i][:0]
	}
	for i := range b.srcTargets {
		b.srcTargets[i] = b.srcTargets[i][:0]
	}
	for i := range b.knnSlots {
		b.knnSlots[i] = -1
	}
	if b.MemoryBudget > 0 && b.AccumulatorBytes() > b.MemoryBudget {
		b.shed()
	}
	b.ran = false
}

// shed drops every request-shaped accumulator — the per-worker
// reliability/disconnection counters and distance/k-NN histograms,
// plus the merged views aliasing worker 0's — so a post-shed batch
// retains zero accumulator bytes. The next Run regrows exactly what
// its queries need.
func (b *Batch) shed() {
	for _, w := range b.ws {
		w.rel, w.disc = nil, nil
		w.distH, w.knnH = nil, nil
	}
	b.relHits, b.distDisc = nil, nil
	b.distHist, b.knnHist = nil, nil
}

// AccumulatorBytes reports the payload bytes currently retained by the
// batch's per-worker query accumulators — the quantity Reset compares
// against MemoryBudget.
func (b *Batch) AccumulatorBytes() int64 {
	var total int64
	for _, w := range b.ws {
		total += int64(cap(w.rel))*8 + int64(cap(w.disc))*8
		// Count up to the outer capacity: a shrunken run hides its
		// high-water histograms behind the truncated length, but they
		// are still retained.
		for _, h := range w.distH[:cap(w.distH)] {
			total += int64(cap(h)) * 4
		}
		for _, h := range w.knnH[:cap(w.knnH)] {
			total += int64(cap(h)) * 4
		}
	}
	return total
}

// AddReliability registers a two-terminal reliability query Pr(s ~ t)
// and returns its query id.
func (b *Batch) AddReliability(s, t int) int {
	b.checkVertex(s)
	b.checkVertex(t)
	slot := b.nrel
	b.nrel++
	return b.add(qmeta{kind: qReliability, slot: int32(slot), s: int32(s), t: int32(t)})
}

// AddDistance registers a distance-distribution query for the pair
// (s, t) and returns its query id; the result answers the full
// distribution, the disconnection probability and the count-rule
// median.
func (b *Batch) AddDistance(s, t int) int {
	b.checkVertex(s)
	b.checkVertex(t)
	slot := b.ndist
	b.ndist++
	return b.add(qmeta{kind: qDistance, slot: int32(slot), s: int32(s), t: int32(t)})
}

// AddKNearest registers a median-distance k-nearest-neighbour query
// from s and returns its query id. The per-vertex distance histogram
// depends only on the source, so k-NN queries sharing a source share
// one histogram slot (filled once per world) and differ only at
// ranking time.
func (b *Batch) AddKNearest(s, k int) int {
	b.checkVertex(s)
	if k < 0 {
		panic(fmt.Sprintf("query: negative k %d", k))
	}
	// A k beyond the vertex count returns every candidate anyway; clamp
	// before the int32 narrowing below, which a huge k (e.g. a JSON
	// 2^63-1 through qserve) would otherwise wrap negative — knnRank
	// would slice cands[:-1] and panic.
	if n := b.g.NumVertices(); k > n {
		k = n
	}
	si := b.sourceSlot(int32(s))
	slot := b.knnSlots[si]
	if slot < 0 {
		slot = int32(b.nknn)
		b.nknn++
		b.knnSlots[si] = slot
	}
	id := len(b.queries)
	b.queries = append(b.queries, qmeta{kind: qKNearest, slot: slot, s: int32(s), k: int32(k)})
	b.ran = false
	return id
}

func (b *Batch) checkVertex(v int) {
	if v < 0 || v >= b.g.NumVertices() {
		panic(fmt.Sprintf("query: vertex %d out of range [0,%d)", v, b.g.NumVertices()))
	}
}

func (b *Batch) add(q qmeta) int {
	id := len(b.queries)
	b.queries = append(b.queries, q)
	si := b.sourceSlot(q.s)
	b.srcQueries[si] = append(b.srcQueries[si], int32(id))
	b.srcTargets[si] = append(b.srcTargets[si], q.t)
	b.ran = false
	return id
}

// sourceSlot interns s into the distinct-source table; all queries
// sharing a source share one BFS per world.
func (b *Batch) sourceSlot(s int32) int {
	if si, ok := b.srcIndex[s]; ok {
		return si
	}
	si := len(b.sources)
	b.sources = append(b.sources, s)
	if len(b.srcQueries) <= si {
		b.srcQueries = append(b.srcQueries, nil)
	}
	if len(b.srcTargets) <= si {
		b.srcTargets = append(b.srcTargets, nil)
	}
	if len(b.knnSlots) <= si {
		b.knnSlots = append(b.knnSlots, -1)
	}
	b.srcIndex[s] = si
	return si
}

// ErrOverBudget reports a query set whose worst-case accumulator
// footprint exceeds the configured memory budget. Run returns it
// wrapped in a *BudgetError carrying the exact numbers; test with
// errors.Is.
var ErrOverBudget = errors.New("query: worst-case accumulator footprint exceeds the memory budget")

// BudgetError is the typed rejection of an over-budget Run: the
// registered queries could grow NeedBytes of accumulators, above the
// batch's BudgetBytes. It unwraps to ErrOverBudget.
type BudgetError struct {
	NeedBytes, BudgetBytes int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v: worst case %d bytes > budget %d bytes", ErrOverBudget, e.NeedBytes, e.BudgetBytes)
}

func (e *BudgetError) Unwrap() error { return ErrOverBudget }

// WorstCaseAccumBytes bounds the accumulator memory a query set can
// grow on an n-vertex graph: each distinct k-NN source fills one
// d-major histogram of (maxDist+1)·n int32 counters per worker, and
// maxDist+1 <= n, so knnSources × n² × 4 bytes × workers dominates.
// (Reliability and distance accumulators are O(1) and O(n) int32 per
// query — bounded by the query count, not worth budgeting.) qserve's
// validate and Batch.Run both price requests with this bound.
func WorstCaseAccumBytes(n, knnSources, workers int) int64 {
	return int64(knnSources) * int64(workers) * int64(n) * int64(n) * 4
}

// DefaultWorlds returns the Hoeffding sample size used when Worlds is
// unset: 738 worlds for ±0.05 at 95% confidence on indicator
// statistics (paper Lemma 2 / Corollary 1).
func DefaultWorlds() int { return mathx.HoeffdingSampleSize(0, 1, 0.05, 0.05) }

func (b *Batch) worlds() int {
	if b.Worlds > 0 {
		return b.Worlds
	}
	return DefaultWorlds()
}

// Run samples the batch's worlds and evaluates every registered query
// against each on the world loop the sampling pipeline shares
// (internal/worldloop): world seeds are pre-derived from Seed for the
// whole world budget, each world's contribution depends only on its
// seed, and all accumulators are integer counts, so results are
// bit-identical for every Workers value. Run may be called again — the
// same Seed reproduces the same answers, a new Seed resamples.
//
// With Tolerance set, Run is adaptive: worlds are scanned in
// worldloop.Block blocks, and the run stops at the first block
// barrier where every registered query's relative SEM is inside the
// tolerance (see Config.Tolerance for the per-kind rules). The
// convergence decision is computed from the merged integer counts in a
// canonical order, so it — and hence WorldsRun — is identical for
// every Workers value, and a stopped run's accumulators are
// bit-identical to the same-length prefix of a fixed full-budget run.
//
// Cancelling ctx aborts the run at world granularity: no new world is
// scanned once ctx is done, in-flight worlds finish, every worker
// goroutine is joined, and ctx.Err() is returned with the batch left
// un-ran (result accessors stay unavailable, no buffers leak). A
// subsequent Run on the same batch re-derives the world seeds and
// resets every accumulator, so it produces results bit-identical to a
// never-cancelled run. A nil ctx never cancels.
func (b *Batch) Run(ctx context.Context) error {
	// Mark the batch un-ran before touching any accumulator: a
	// cancelled re-Run must leave the previous run's (now wiped)
	// results unavailable, not silently readable.
	b.ran = false
	r := b.worlds()
	workers := worldloop.Workers(b.Workers, r)
	if b.MemoryBudget > 0 {
		if need := WorstCaseAccumBytes(b.g.NumVertices(), b.nknn, workers); need > b.MemoryBudget {
			return &BudgetError{NeedBytes: need, BudgetBytes: b.MemoryBudget}
		}
	}
	b.prepare(workers)
	adaptive := b.Tolerance > 0
	done, err := b.loop.Run(ctx, b.g, worldloop.Config{
		Worlds:   r,
		Seed:     b.Seed,
		Workers:  b.Workers,
		Adaptive: adaptive,
		Progress: b.Progress,
	}, (*scanner)(b))
	if err != nil {
		return err
	}
	b.merge(workers)
	b.worldsRun = done
	b.converged = adaptive && b.allConverged(1, done)
	b.ran = true
	return nil
}

// scanner adapts a Batch to worldloop.Scanner, keeping the per-world
// methods off the public Batch API.
type scanner Batch

func (s *scanner) ScanWorld(lane, _ int, world *graph.Graph, _ int64) {
	(*Batch)(s).scanWorld(s.ws[lane], world)
}

func (s *scanner) Converged(lanes, done int) bool {
	return (*Batch)(s).allConverged(lanes, done)
}

// allConverged reports whether every registered query's relative SEM
// over the first done worlds is inside b.Tolerance. It reads the live
// per-worker accumulators, so it must only run at a block barrier.
//
// Determinism: every scalar entering a float is first totalled across
// workers in exact integer arithmetic, and the float accumulation then
// walks distances in ascending order — the decision depends only on
// the merged counts, never on which worker scanned which world, so
// identical for every Workers value.
func (b *Batch) allConverged(workers, done int) bool {
	// A k-NN ranking has no scalar confidence interval to test against
	// the tolerance; a batch carrying one runs its full budget.
	if b.nknn > 0 {
		return false
	}
	for slot := 0; slot < b.nrel; slot++ {
		var hits int64
		for k := 0; k < workers; k++ {
			hits += b.ws[k].rel[slot]
		}
		// An indicator's moments coincide: Σx = Σx² = the hit count.
		h := float64(hits)
		if !(mathx.RelativeSEMFromMoments(h, h, done) <= b.Tolerance) {
			return false
		}
	}
	n := float64(b.g.NumVertices())
	for slot := 0; slot < b.ndist; slot++ {
		var disc int64
		maxLen := 0
		for k := 0; k < workers; k++ {
			w := b.ws[k]
			disc += w.disc[slot]
			if l := len(w.distH[slot]); l > maxLen {
				maxLen = l
			}
		}
		var sum, sumsq float64
		for d := 0; d < maxLen; d++ {
			var c int64
			for k := 0; k < workers; k++ {
				if h := b.ws[k].distH[slot]; d < len(h) {
					c += int64(h[d])
				}
			}
			if c == 0 {
				continue
			}
			fd, fc := float64(d), float64(c)
			sum += fd * fc
			sumsq += fd * fd * fc
		}
		// Disconnections enter as distance n — a finite upper bound on
		// any world distance, keeping the statistic Hoeffding-bounded.
		sum += n * float64(disc)
		sumsq += n * n * float64(disc)
		if !(mathx.RelativeSEMFromMoments(sum, sumsq, done) <= b.Tolerance) {
			return false
		}
	}
	return true
}

// WorldsRun returns the number of worlds the last successful Run
// sampled: the fixed count, or fewer when Tolerance stopped the run
// early. It returns 0 before the first Run.
func (b *Batch) WorldsRun() int {
	if !b.ran {
		return 0
	}
	return b.worldsRun
}

// Converged reports whether every registered query's relative SEM was
// inside Tolerance when the last successful Run stopped — false for
// fixed runs (Tolerance 0), for adaptive runs that exhausted their
// world budget short of the tolerance, and for any batch carrying a
// k-NN query.
func (b *Batch) Converged() bool {
	if !b.ran {
		return false
	}
	return b.converged
}

// prepare resets the per-lane accumulators for workers lanes, reusing
// every buffer from previous runs.
func (b *Batch) prepare(workers int) {
	for len(b.ws) < workers {
		b.ws = append(b.ws, &worker{scratch: bfs.NewScratch()})
	}
	for k := 0; k < workers; k++ {
		b.ws[k].prepare(b.nrel, b.ndist, b.nknn)
	}
}

func (w *worker) prepare(nrel, ndist, nknn int) {
	w.rel = resetCounts64(w.rel, nrel)
	w.disc = resetCounts64(w.disc, ndist)
	w.distH = resetHists(w.distH, ndist)
	w.knnH = resetHists(w.knnH, nknn)
}

func resetCounts64(xs []int64, n int) []int64 {
	if cap(xs) < n {
		xs = make([]int64, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// resetHists truncates every histogram to empty after zeroing its full
// capacity, establishing the invariant growCounts relies on: any
// region re-exposed by reslicing within capacity is already zero.
// Growth within the outer capacity reslices rather than appends, so
// histograms retained beyond a shrunken run (a pooled batch serving a
// smaller request) are recovered, not overwritten.
func resetHists(hs [][]int32, n int) [][]int32 {
	if n <= cap(hs) {
		hs = hs[:n]
	} else {
		hs = append(hs[:cap(hs)], make([][]int32, n-cap(hs))...)
	}
	for i := range hs {
		h := hs[i][:cap(hs[i])]
		clear(h)
		hs[i] = h[:0]
	}
	return hs
}

// growCounts extends h to length need. Entries exposed within the
// existing capacity were pre-zeroed by resetHists; entries in a grown
// backing array are fresh zero memory.
func growCounts(h []int32, need int) []int32 {
	if need <= len(h) {
		return h
	}
	for cap(h) < need {
		h = append(h, 0)
	}
	return h[:need]
}

// scanWorld runs one BFS per distinct source over a materialized
// world and folds every query's observation into w's integer
// accumulators. Steady-state cost: zero heap allocations.
func (b *Batch) scanWorld(w *worker, world *graph.Graph) {
	n := world.NumVertices()
	for si, s := range b.sources {
		// A source whose queries all name explicit targets stops its
		// BFS once the last target resolves; a k-NN source needs every
		// component distance, so it runs the full walk. Both walks
		// agree bit-for-bit on every registered target.
		var dist []int32
		if b.knnSlots[si] >= 0 || b.fullBFS {
			dist = w.scratch.FromSourceInto(world, int(s))
		} else {
			dist = w.scratch.FromSourceTargetsInto(world, int(s), b.srcTargets[si])
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

// merge folds every worker's accumulators into worker 0's; all
// contributions are integer counts, so the result does not depend on
// how worlds were distributed across workers.
func (b *Batch) merge(workers int) {
	w0 := b.ws[0]
	for k := 1; k < workers; k++ {
		w := b.ws[k]
		for i, v := range w.rel {
			w0.rel[i] += v
		}
		for i, v := range w.disc {
			w0.disc[i] += v
		}
		for i, h := range w.distH {
			w0.distH[i] = addCounts(w0.distH[i], h)
		}
		for i, h := range w.knnH {
			w0.knnH[i] = addCounts(w0.knnH[i], h)
		}
	}
	b.relHits = w0.rel
	b.distDisc = w0.disc
	b.distHist = w0.distH
	b.knnHist = w0.knnH
}

func addCounts(dst, src []int32) []int32 {
	dst = growCounts(dst, len(src))
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Reliability returns the estimated two-terminal reliability of query
// id (registered via AddReliability).
func (b *Batch) Reliability(id int) float64 {
	return b.view().Reliability(id)
}

// DistanceDistribution returns the estimated distribution of
// dist(s, t) — dist[d] = Pr(dist = d) — plus the disconnection
// probability, for query id (registered via AddDistance).
func (b *Batch) DistanceDistribution(id int) (dist map[int]float64, disconnected float64) {
	return b.view().DistanceDistribution(id)
}

// MedianDistance returns the count-rule median of dist(s, t) for query
// id (registered via AddDistance): the smallest d whose cumulative
// world count reaches ceil(r/2), with the disconnection bucket last
// (-1 when the median itself is a disconnection). This is the same
// rule k-NN ranking applies, so both APIs provably agree on shared
// worlds.
func (b *Batch) MedianDistance(id int) int {
	return b.view().MedianDistance(id)
}

// medianOfCounts returns the count-rule median distance given
// per-distance occurrence counts over r worlds: the disconnection
// bucket (the r - sum(counts) worlds where the target was unreached,
// i.e. at distance +infinity) sorts last, and -1 reports that the
// median is a disconnection.
func medianOfCounts(counts []int32, r int) int {
	half := (r + 1) / 2
	cum := 0
	for d, c := range counts {
		cum += int(c)
		if cum >= half {
			return d
		}
	}
	return -1
}

// Neighbor is one ranked k-NN result: a vertex and its count-rule
// median distance from the query source.
type Neighbor struct {
	V      int
	Median int
}

// KNearest returns the k vertices with the smallest median distance to
// the query source (excluding the source), ties broken by vertex id,
// for query id (registered via AddKNearest).
func (b *Batch) KNearest(id int) []int {
	return b.view().KNearest(id)
}

// KNearestWithMedians is KNearest with each neighbour's median
// distance attached.
func (b *Batch) KNearestWithMedians(id int) []Neighbor {
	return b.view().KNearestWithMedians(id)
}

// cand is a k-NN candidate: a vertex and its median distance.
type cand struct {
	v      int
	median int
}

func sortCands(cands []cand) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].median != cands[j].median {
			return cands[i].median < cands[j].median
		}
		return cands[i].v < cands[j].v
	})
}
