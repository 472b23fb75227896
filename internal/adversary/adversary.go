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
// requested ω inside that support. Skipping the others is exact, not an
// approximation: an exact 0 changes neither an entropy accumulator nor
// a belief sum or maximum, so every column measure is bit-identical to
// a fold over all requested ω.
package adversary

import (
	"context"
	"math"
	"runtime"
	"sort"

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

// ParallelWorkers implements WorkerHinted.
func (m UncertainModel) ParallelWorkers() int { return m.Workers }

// Aborted implements Abortable on top of the model's context.
func (m UncertainModel) Aborted() bool {
	return m.Ctx != nil && m.Ctx.Err() != nil
}

// WorkerHinted is an optional Model extension: models that carry an
// explicit worker budget (e.g. one trial of the parallel obfuscation
// engine, which shares cores with its sibling trials) expose it here;
// the column scans otherwise default to GOMAXPROCS.
type WorkerHinted interface {
	ParallelWorkers() int
}

// Abortable is an optional Model extension: the column scans poll it
// between chunks and stops scanning once it reports true, returning an
// unspecified result the caller has agreed to discard.
type Abortable interface {
	Aborted() bool
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
// parallel (the model's WorkerHinted budget, else GOMAXPROCS; polling
// Abortable between chunks), and folds X_v(ω) of each vertex of a
// chunk, in vertex order, into that chunk's accumulator of ω: one A per
// requested ω, starting at A's zero value, updated by add. It returns
// the accumulators in chunk order, for the caller to merge in that
// order, or nil when there is nothing to scan. A chunk's accumulators
// are nil only after an abort, whose result the caller discards anyway.
//
// add sees only the ω that can carry mass: never a negative ω
// (Dist.Prob is 0 there), and for an UncertainModel never an ω above
// the vertex's incident-pair count, the top of its support. Each vertex
// walks the ω in ascending order through one sorted index built per
// scan, so an UncertainModel vertex stops at the first ω past its
// support and a scan costs its in-support entries instead of |V| × |ω|.
// Skipping is exact because both folds (entropy, belief) leave an
// accumulator unchanged on an exact 0: every accumulator receives the
// same non-zero adds, in the same vertex order, as a full fold.
//
// For an UncertainModel each chunk rebuilds every vertex's degree law
// into one reused pbinom.Dist (Dist.Reset) through one reused
// probability buffer, so the scan allocates nothing per vertex.
func scanChunks[A any](m Model, omegas []int, add func(acc *A, p float64)) [][]A {
	if prep, ok := m.(Preparer); ok {
		prep.Prepare(omegas)
	}
	n := m.NumVertices()
	if len(omegas) == 0 || n == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if h, ok := m.(WorkerHinted); ok && h.ParallelWorkers() > 0 {
		workers = h.ParallelWorkers()
	}
	aborted := func() bool { return false }
	if ab, ok := m.(Abortable); ok {
		aborted = ab.Aborted
	}
	order := ascendingOmegas(omegas)
	um, isUncertain := m.(UncertainModel)
	chunkAccs := make([][]A, (n+scanChunk-1)/scanChunk)
	parallel.For(len(chunkAccs), workers, aborted, func(c int) {
		lo := c * scanChunk
		hi := min(lo+scanChunk, n)
		acc := make([]A, len(omegas))
		if isUncertain {
			var law pbinom.Dist
			var probs []float64
			for v := lo; v < hi; v++ {
				probs = um.G.AppendIncidentProbs(probs[:0], v)
				law.Reset(probs, um.ExactThreshold)
				top := law.NumTerms()
				for _, i := range order {
					if omegas[i] > top {
						break
					}
					add(&acc[i], law.Prob(omegas[i]))
				}
			}
		} else {
			for v := lo; v < hi; v++ {
				x := m.VertexX(v)
				for _, i := range order {
					add(&acc[i], x.Prob(omegas[i]))
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
	sort.Slice(order, func(a, b int) bool { return omegas[order[a]] < omegas[order[b]] })
	return order
}

// ColumnEntropies computes H(Y_ω) for every requested property value ω,
// streaming the X columns of all vertices through entropy accumulators.
// The vertex scan is parallelized across CPUs; its result is
// bit-identical for every worker count.
func ColumnEntropies(m Model, omegas []int) map[int]float64 {
	chunks := scanChunks(m, omegas, (*mathx.EntropyAccumulator).Add)
	out := make(map[int]float64, len(omegas))
	if chunks == nil {
		return out
	}
	merged := make([]mathx.EntropyAccumulator, len(omegas))
	for _, acc := range chunks {
		if acc == nil {
			continue
		}
		for i := range merged {
			merged[i].Merge(acc[i])
		}
	}
	for i, omega := range omegas {
		out[omega] = merged[i].Entropy()
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

// NotObfuscatedFraction returns ε̃: the fraction of original vertices
// that are not k-obfuscated (H(Y_{P(v)}) < log2 k) under the model.
func NotObfuscatedFraction(m Model, values []int, k float64) float64 {
	if len(values) == 0 {
		return 0
	}
	ents := VertexEntropies(m, values)
	logk := math.Log2(k)
	bad := 0
	for _, h := range ents {
		if h < logk-1e-12 {
			bad++
		}
	}
	return float64(bad) / float64(len(values))
}

// IsKEpsObfuscation reports whether the model provides a
// (k, ε)-obfuscation with respect to the property assignment, i.e. at
// least (1-ε)n vertices are k-obfuscated (Definition 2).
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
