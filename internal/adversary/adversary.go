// Package adversary implements the paper's re-identification model and
// the (k, ε)-obfuscation criterion (Definitions 2 and 3 of Section 3,
// quantified for the degree property in Section 4).
//
// The adversary knows a property value ω = P(v) of a target vertex and
// examines a published object in which each vertex v has a probability
// distribution X_v over property values. Normalizing the column of
// X at ω over all vertices yields Y_ω (Eq. 3), the adversary's belief
// distribution about which published vertex is the target. A vertex is
// k-obfuscated when H(Y_{P(v)}) >= log2 k, and the published object is a
// (k, ε)-obfuscation when at most an ε-fraction of vertices fail that
// bound.
//
// The same machinery serves two publishers: uncertain graphs (X_v is the
// Poisson-binomial degree distribution of Section 4) and the
// random-perturbation baselines of Section 7.3, whose X columns are
// degree-transition probabilities under the random model (the entropy
// measure of Bonchi et al.). Both are adapted to the Model interface.
//
// For an uncertain graph, X_v is supported on {0, ..., L_v}, where L_v
// is the number of candidate pairs incident to v, and is exactly 0
// outside it. The column scans therefore evaluate, per vertex, only the
// requested ω inside that support, and skip a vertex whose L_v is below
// every requested ω without building its law. Skipping is exact, not an
// approximation: an exact 0 changes neither an entropy accumulator nor
// a belief sum or maximum, so every column measure is bit-identical to
// a fold over all requested ω.
//
// The (k, ε) check (Assignment.Check) classifies the columns in three
// stages, from the highest ω down, and stops once the columns classified
// so far prove ε' > ε. Its answer equals that of one scan over every
// column, because:
//
//   - a column's entropy depends only on the adds X_v(ω) of the vertices
//     with ω <= L_v, made in vertex order within each fixed scan chunk,
//     with the chunks merged in chunk order; a stage's scan makes
//     exactly those adds for its columns, and a vertex whose L_v is
//     below the stage's least ω adds nothing to any of them;
//   - the count of vertices not k-obfuscated only grows from stage to
//     stage, and float64(bad)/float64(n) is monotone in it, so a partial
//     count above ε proves the full count is above ε too; the ε' of a
//     failed check is never needed, so the check does not finish it;
//   - a passing check classifies every column, so it reaches the full
//     count and returns the same ε' = float64(bad)/float64(n).
//
// Within one check a vertex's degree law is built at most once: a law a
// stage builds is kept for the stages after it. An approximated law is
// read through pbinom.Walk, which shares the erfc endpoint of adjacent
// ω, bit-identical to Prob.
package adversary

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/pbinom"
)

// Dist is a probability mass function over non-negative integers:
// Prob is 0 for every negative k. pbinom.Dist satisfies it.
type Dist interface {
	Prob(k int) float64
}

// Model exposes, per published vertex v, the distribution X_v(ω) over
// property values ω (paper Eq. 2 for uncertain graphs).
type Model interface {
	NumVertices() int
	// VertexX returns X_v as a distribution. Implementations are called
	// once per vertex per pass and may allocate.
	VertexX(v int) Dist
}

// Incidence is what the degree model reads of an uncertain graph: per
// vertex, the probabilities of its incident candidate pairs, in
// candidate-list order. *uncertain.Graph satisfies it; the obfuscation
// engine's trials scan lists kept in their own buffers, and build a
// graph only for a trial that can be published.
type Incidence interface {
	NumVertices() int
	// IncidentCount returns the number of v's incident pairs, L_v: the
	// length AppendIncidentProbs appends, and the top of v's support.
	IncidentCount(v int) int
	// AppendIncidentProbs appends v's incident probabilities to dst
	// and returns the extended slice.
	AppendIncidentProbs(dst []float64, v int) []float64
}

// UncertainModel adapts an uncertain graph to the adversary interface
// for the degree property: X_v is the Poisson-binomial law of v's degree
// over its incident candidate pairs.
type UncertainModel struct {
	G Incidence
	// ExactThreshold bounds the exact DP size; beyond it the CLT
	// approximation is used (<= 0 selects pbinom.DefaultExactThreshold).
	ExactThreshold int
	// Workers bounds the parallelism of the entropy scan (<= 0 selects
	// GOMAXPROCS). The scan's result is bit-identical for every value.
	Workers int
	// Ctx, when non-nil and cancelled, abandons the scan at the next
	// chunk boundary; the result is then unspecified and the caller must
	// discard it. The obfuscation engine hands each trial's scan the
	// context of Obfuscate's caller, so a cancelled search stops
	// mid-scan; request-scoped callers pass their request context so a
	// dropped client stops the scan.
	Ctx context.Context
}

// NumVertices implements Model.
func (m UncertainModel) NumVertices() int { return m.G.NumVertices() }

// VertexX implements Model.
func (m UncertainModel) VertexX(v int) Dist {
	return pbinom.New(m.G.AppendIncidentProbs(nil, v), m.ExactThreshold)
}

// Preparer is an optional Model extension: models whose X columns are
// cheaper to precompute in bulk (the baseline degree-transition models)
// implement it, and the column scans invoke it before the parallel
// scan.
type Preparer interface {
	Prepare(omegas []int)
}

// scanChunk is the fixed vertex-range granularity of the parallel scan.
// Chunk boundaries — and hence the order in which partial accumulators
// merge — must not depend on the worker count: float addition is not
// associative, so a worker-count-dependent split would make entropies
// (and every (k, ε) decision built on them) drift between runs with
// different parallelism. Fixed chunks merged in index order give
// bit-identical results for any number of workers.
const scanChunk = 512

// scanChunks is the vertex scan behind every column measure. It splits
// the vertices into fixed scanChunk-vertex chunks, scans them in
// parallel (an UncertainModel's Workers, else GOMAXPROCS; polling an
// UncertainModel's Ctx between chunks), and folds X_v(ω) of each
// vertex of a chunk, in vertex order, into that chunk's accumulator of
// ω: one A per requested ω, starting at A's zero value, updated by add.
// It returns the accumulators in chunk order, for the caller to merge
// in that order, or nil when there is nothing to scan. A chunk's
// accumulators are nil only after an abort, whose result the caller
// discards anyway.
//
// add sees only the ω that can carry mass: never a negative ω
// (Dist.Prob is 0 there), and for an UncertainModel never an ω above
// the vertex's incident-pair count, the top of its support. Each vertex
// walks the ω in ascending order through one sorted index built per
// scan, so an UncertainModel vertex stops at the first ω past its
// support, and a vertex whose count is below the least requested ω is
// skipped before its probabilities are read: a scan costs its
// in-support entries instead of |V| × |ω|. Skipping is exact because
// both folds (entropy, belief) leave an accumulator unchanged on an
// exact 0: every accumulator receives the same non-zero adds, in the
// same vertex order, as a full fold.
//
// For an UncertainModel each chunk builds a vertex's degree law in
// reused storage: sc's chunk buffers and, for the stages of a staged
// check, the laws sc keeps; a nil sc gives each chunk its own buffers
// for this scan. So the scan allocates nothing per vertex.
func scanChunks[A any](m Model, omegas []int, add func(acc *A, p float64), sc *checkScratch) [][]A {
	if prep, ok := m.(Preparer); ok {
		prep.Prepare(omegas)
	}
	n := m.NumVertices()
	if len(omegas) == 0 || n == 0 {
		return nil
	}
	um, isUncertain := m.(UncertainModel)
	workers := runtime.GOMAXPROCS(0)
	if um.Workers > 0 {
		workers = um.Workers
	}
	var stop func() bool
	if um.Ctx != nil {
		stop = func() bool { return um.Ctx.Err() != nil }
	}
	order := ascendingOmegas(omegas)
	threshold := um.ExactThreshold
	if threshold <= 0 {
		threshold = pbinom.DefaultExactThreshold
	}
	chunkAccs := make([][]A, (n+scanChunk-1)/scanChunk)
	parallel.For(len(chunkAccs), workers, stop, func(_, c int) {
		lo := c * scanChunk
		hi := min(lo+scanChunk, n)
		acc := make([]A, len(omegas))
		switch {
		case !isUncertain:
			for v := lo; v < hi; v++ {
				x := m.VertexX(v)
				for _, i := range order {
					add(&acc[i], x.Prob(omegas[i]))
				}
			}
		case len(order) > 0:
			var own chunkScratch
			cs := &own
			if sc != nil {
				cs = &sc.chunks[c]
			}
			floor := omegas[order[0]]
			for v := lo; v < hi; v++ {
				top := um.G.IncidentCount(v)
				if top < floor {
					continue
				}
				walk := sc.law(cs, um.G, v, top, threshold).Walk()
				for _, i := range order {
					if omegas[i] > top {
						break
					}
					add(&acc[i], walk.Prob(omegas[i]))
				}
			}
		}
		chunkAccs[c] = acc
	})
	return chunkAccs
}

// ascendingOmegas returns the indices of the non-negative entries of
// omegas, ordered by ascending ω: the sorted index every vertex of a
// scan walks until it leaves the vertex's support.
func ascendingOmegas(omegas []int) []int {
	order := make([]int, 0, len(omegas))
	for i, omega := range omegas {
		if omega >= 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(omegas[a], omegas[b]) })
	return order
}

// chunkScratch is one scan chunk's reused storage: the probability
// buffer, the law of a vertex that is not kept, and the buffer the
// kept exact laws of the chunk's vertices are carved from.
type chunkScratch struct {
	probs  []float64
	law    pbinom.Dist
	tables []float64
}

// carve returns n floats of the chunk's table buffer for one kept exact
// law. A full buffer is replaced by a larger one: the laws carved from
// the old one keep it alive while their check runs, and later checks
// carve from the larger one.
func (cs *chunkScratch) carve(n int) []float64 {
	if cap(cs.tables)-len(cs.tables) < n {
		cs.tables = make([]float64, 0, max(2*cap(cs.tables), n, 512))
	}
	k := len(cs.tables)
	cs.tables = cs.tables[:k+n]
	return cs.tables[k : k+n : k+n]
}

// checkScratch is what a staged check reuses: per chunk storage, the
// degree laws its stages keep for the stages after them (laws[v] is v's
// law where built[v]), and the buffer of its column entropies. An
// Assignment pools them, so its checks allocate nothing per vertex.
type checkScratch struct {
	chunks []chunkScratch
	laws   []pbinom.Dist
	built  []bool
	ents   []float64
	// keep is set while a stage with later stages scans: the laws it
	// builds are kept for them.
	keep bool
}

// reset readies sc for one check of a model with n vertices.
func (sc *checkScratch) reset(n int) {
	sc.laws = slices.Grow(sc.laws[:0], n)[:n]
	sc.built = slices.Grow(sc.built[:0], n)[:n]
	clear(sc.built)
	if chunks := (n + scanChunk - 1) / scanChunk; len(sc.chunks) < chunks {
		sc.chunks = append(sc.chunks, make([]chunkScratch, chunks-len(sc.chunks))...)
	}
	for c := range sc.chunks {
		sc.chunks[c].tables = sc.chunks[c].tables[:0]
	}
}

// law returns v's degree law, with top = L_v incident pairs and the
// resolved exact threshold: the law an earlier stage of sc's check
// kept, or one built now from g, kept in sc when the stage keeps laws
// and otherwise built in the chunk's own law. sc may be nil.
func (sc *checkScratch) law(cs *chunkScratch, g Incidence, v, top, threshold int) *pbinom.Dist {
	if sc != nil && sc.built[v] {
		return &sc.laws[v]
	}
	cs.probs = g.AppendIncidentProbs(cs.probs[:0], v)
	if sc == nil || !sc.keep {
		cs.law.Reset(cs.probs, threshold)
		return &cs.law
	}
	var table []float64
	if top <= threshold {
		table = cs.carve(top + 1)
	}
	law := &sc.laws[v]
	law.ResetIn(table, cs.probs, threshold)
	sc.built[v] = true
	return law
}

// columnEntropies computes H(Y_ω) for each ω of omegas, in their
// order, into dst's storage (grown when too short): the chunk
// accumulators of one scan merged in chunk order. Columns of a model
// with no vertices read 0.
func columnEntropies(m Model, omegas []int, sc *checkScratch, dst []float64) []float64 {
	merged := make([]mathx.EntropyAccumulator, len(omegas))
	for _, acc := range scanChunks(m, omegas, (*mathx.EntropyAccumulator).Add, sc) {
		if acc == nil {
			continue
		}
		for i := range merged {
			merged[i].Merge(acc[i])
		}
	}
	dst = slices.Grow(dst[:0], len(omegas))[:len(omegas)]
	for i := range merged {
		dst[i] = merged[i].Entropy()
	}
	return dst
}

// ColumnEntropies computes H(Y_ω) for every requested property value ω,
// streaming the X columns of all vertices through entropy accumulators.
// The vertex scan is parallelized across CPUs; its result is
// bit-identical for every worker count.
func ColumnEntropies(m Model, omegas []int) map[int]float64 {
	ents := columnEntropies(m, omegas, nil, nil)
	out := make(map[int]float64, len(omegas))
	for i, omega := range omegas {
		out[omega] = ents[i]
	}
	return out
}

// DistinctValues returns the sorted distinct values in the property
// assignment (e.g. the distinct original degrees) — exactly the columns
// the (k, ε) check needs.
func DistinctValues(values []int) []int {
	seen := make(map[int]struct{}, len(values))
	var out []int
	for _, v := range values {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// VertexEntropies returns, for each original vertex v (with property
// values[v]), the entropy H(Y_{values[v]}) under the model.
func VertexEntropies(m Model, values []int) []float64 {
	cols := ColumnEntropies(m, DistinctValues(values))
	out := make([]float64, len(values))
	for v, val := range values {
		out[v] = cols[val]
	}
	return out
}

// ObfuscationLevels returns the per-vertex obfuscation level
// 2^H(Y_{P(v)}): the effective crowd size the vertex hides in. A certain
// graph gives exactly the count of vertices sharing the degree.
func ObfuscationLevels(m Model, values []int) []float64 {
	ents := VertexEntropies(m, values)
	out := make([]float64, len(ents))
	for i, h := range ents {
		out[i] = math.Exp2(h)
	}
	return out
}

// Assignment is a property assignment prepared for repeated (k, ε)
// checks: its distinct values, the columns the check needs, with the
// number of vertices holding each. The obfuscation engine prepares the
// original degrees once per run and checks every trial against them.
// It is safe for concurrent checks.
type Assignment struct {
	n      int
	cols   []int // distinct values, ascending
	counts []int // counts[i]: vertices whose value is cols[i]
	pool   sync.Pool
}

// NewAssignment prepares values (e.g. the original degrees) for Check.
func NewAssignment(values []int) *Assignment {
	cols := DistinctValues(values)
	counts := make([]int, len(cols))
	for _, val := range values {
		i, _ := slices.BinarySearch(cols, val)
		counts[i]++
	}
	return &Assignment{n: len(values), cols: cols, counts: counts}
}

// Check decides whether m is a (k, ε)-obfuscation with respect to the
// assignment, as Algorithm 2 (lines 20-21) decides a trial: ok reports
// that ε', the fraction of vertices not k-obfuscated
// (H(Y_{P(v)}) < log2 k), does not exceed eps. A passing check returns
// ε' itself. A failing one may stop before it has classified every
// column and returns a partial fraction that already exceeds eps (see
// the package doc for why that is exact).
//
// The columns are classified in three stages from the highest value
// down. With b the least count whose fraction exceeds eps, stage 1
// takes the highest columns until they hold at least b vertices, stage
// 2 the next ones until they hold at least 2b more, and stage 3 the
// rest; the check fails after a stage once the count so far exceeds
// eps. An eps no fraction exceeds (eps >= 1, +Inf, NaN) gives one
// stage. If m is an UncertainModel whose Ctx is cancelled, the result
// is unspecified.
func (a *Assignment) Check(m Model, k, eps float64) (epsPrime float64, ok bool) {
	if a.n == 0 {
		return 0, !(0 > eps)
	}
	bad, ok := a.check(m, k, eps, nil)
	return float64(bad) / float64(a.n), ok
}

// check runs Check's stages and returns the count of vertices not
// k-obfuscated found so far and whether the check passed. ents[i]
// receives H(Y_{cols[i]}) for every column classified; a nil ents
// selects a buffer of the check's own.
func (a *Assignment) check(m Model, k, eps float64, ents []float64) (bad int, ok bool) {
	cuts, stages := a.stageCuts(eps)
	um, isUncertain := m.(UncertainModel)
	var sc *checkScratch
	if isUncertain && stages > 1 {
		sc, _ = a.pool.Get().(*checkScratch)
		if sc == nil {
			sc = &checkScratch{}
		}
		defer a.pool.Put(sc)
		sc.reset(m.NumVertices())
		if ents == nil {
			sc.ents = slices.Grow(sc.ents[:0], len(a.cols))[:len(a.cols)]
			ents = sc.ents
		}
	}
	if ents == nil {
		ents = make([]float64, len(a.cols))
	}
	limit := math.Log2(k) - 1e-12
	hi := len(a.cols)
	for s, lo := range cuts[:stages] {
		if sc != nil {
			sc.keep = s < stages-1
		}
		stage := columnEntropies(m, a.cols[lo:hi], sc, ents[lo:hi])
		if um.Ctx != nil && um.Ctx.Err() != nil {
			return bad, false
		}
		for i, h := range stage {
			if h < limit {
				bad += a.counts[lo+i]
			}
		}
		if float64(bad)/float64(a.n) > eps {
			return bad, false
		}
		hi = lo
	}
	return bad, true
}

// stageCuts returns where the check's stages start in a.cols, from the
// top stage down, and how many stages there are: stage s covers
// cols[cuts[s]:cuts[s-1]], with cuts[-1] = len(cols), and the last
// stage starts at 0.
func (a *Assignment) stageCuts(eps float64) (cuts [3]int, stages int) {
	// b is the least count of vertices whose fraction exceeds eps; the
	// division is monotone in the count, so the search is exact.
	if !(1 > eps) {
		return cuts, 1
	}
	b := sort.Search(a.n, func(i int) bool { return float64(i+1)/float64(a.n) > eps }) + 1
	i := len(a.cols)
	for _, need := range []int{b, 2 * b} {
		for held := 0; i > 0 && held < need; {
			i--
			held += a.counts[i]
		}
		cuts[stages] = i
		stages++
		if i == 0 {
			return cuts, stages
		}
	}
	cuts[stages] = 0
	return cuts, stages + 1
}

// NotObfuscatedFraction returns ε̃: the fraction of original vertices
// that are not k-obfuscated (H(Y_{P(v)}) < log2 k) under the model. It
// is Assignment.Check with a bound that never stops early.
func NotObfuscatedFraction(m Model, values []int, k float64) float64 {
	epsPrime, _ := NewAssignment(values).Check(m, k, math.Inf(1))
	return epsPrime
}

// IsKEpsObfuscation reports whether the model provides a
// (k, ε)-obfuscation with respect to the property assignment, i.e. at
// least (1-ε)n vertices are k-obfuscated (Definition 2), to within
// 1e-12. A NaN eps gives false.
func IsKEpsObfuscation(m Model, values []int, k, eps float64) bool {
	return NotObfuscatedFraction(m, values, k) <= eps+1e-12
}

// MatchedK implements the parameter-matching rule of Section 7.3: for a
// fixed tolerance ε, the obfuscation level k matched by a published
// graph is the least obfuscation level among its vertices after
// disregarding the ⌊ε·n⌋ vertices with the smallest levels.
func MatchedK(levels []float64, eps float64) float64 {
	if len(levels) == 0 {
		return 0
	}
	sorted := append([]float64(nil), levels...)
	sort.Float64s(sorted)
	drop := int(eps * float64(len(sorted)))
	if drop >= len(sorted) {
		drop = len(sorted) - 1
	}
	return sorted[drop]
}

// AnonymityCDF returns, for each level 1..maxK, the number of vertices
// whose obfuscation level is <= that level — the curves of Figure 4.
func AnonymityCDF(levels []float64, maxK int) []int {
	cdf := make([]int, maxK+1)
	for _, level := range levels {
		// A vertex of level l first satisfies "level <= k" at the
		// smallest integer k >= l.
		idx := int(math.Ceil(level - 1e-12))
		if idx < 0 {
			idx = 0
		}
		if idx > maxK {
			continue
		}
		cdf[idx]++
	}
	for k := 1; k <= maxK; k++ {
		cdf[k] += cdf[k-1]
	}
	return cdf
}

// static check that pbinom.Dist satisfies Dist.
var _ Dist = pbinom.Dist{}
