// Package anf implements HyperANF (Boldi–Rosa–Vigna, WWW'11): an
// estimator of the neighbourhood function N(t) — the number of ordered
// vertex pairs within distance t — using one HyperLogLog counter per
// vertex, iteratively unioned over neighbourhoods until stabilization.
//
// The paper uses HyperANF to compute the distance-based statistics of
// §6.3 on each sampled possible world, repeating runs and jackknifing
// to bound the estimation error. DistanceDistribution and Jackknifed
// reproduce that pipeline.
//
// The kernel uses HyperANF's own two speed techniques, and neither
// moves an output bit relative to the textbook iteration that unions
// every neighbour's counter and re-estimates every counter each round:
//   - systolic updates: an iteration unions in and copies across only
//     the counters that changed in the previous one, re-estimates only
//     the counters it changes, and sums cached estimates in vertex
//     order (Engine states why each step is exact);
//   - broadword maxima: every counter lives in one flat bank of words,
//     eight 7-bit registers per uint64, and hll's Fold takes the
//     register-wise maximum of all of a vertex's changed neighbours in
//     one pass. On amd64 with AVX2 the default 16-word counter stays in
//     four 32-byte vector registers while every neighbour folds in;
//     elsewhere, and for smaller counters, Go code keeps four words in
//     flight, and since every register stays below 0x80 its per-byte
//     compare cannot borrow across bytes. Both pick the maximum the
//     byte loop would.
//
// hll's Estimate counts zero registers, which alone settles the
// linear-counting range, and otherwise sums 2^-r in exact integer
// units, with AVX2 where the CPU has it; both return the
// register-order loop's float bit for bit (hll.Counter.Estimate states
// why).
package anf

import (
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/hll"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/stats"
)

// Options configures a HyperANF run.
type Options struct {
	// Bits is the per-counter register exponent (m = 2^Bits registers);
	// 0 selects 7 (m = 128, ~9% per-counter RSD, far smaller after
	// summing over vertices).
	Bits int
	// MaxIter caps the number of BFS-like iterations; 0 selects 256.
	MaxIter int
	// Seed decorrelates the hash functions of repeated runs.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Bits == 0 {
		o.Bits = 7
	}
	if o.MaxIter == 0 {
		o.MaxIter = 256
	}
	return o
}

// NeighbourhoodFunction estimates N(t) for t = 0, 1, ... until no
// counter changes (or MaxIter). N(0) = n; N(t) counts ordered pairs
// (u, v) with dist(u,v) <= t, including u = v. It runs a fresh Engine.
func NeighbourhoodFunction(g *graph.Graph, opt Options) []float64 {
	return NewEngine(opt).NeighbourhoodFunction(g, opt.Seed)
}

// Engine runs HyperANF repeatedly against reusable state: every
// counter register of every vertex lives in one flat bank of words
// that is reset — not reallocated — between runs, and the per-vertex
// estimate and change flags, the neighbourhood function and the
// distance-count buffers are reused likewise. The possible-world
// estimation pipeline holds one Engine per worker and reuses it across
// all that worker's sampled worlds; the package-level functions run a
// fresh one. An Engine runs its iterations sequentially (the worlds
// are the parallel axis).
//
// The iteration is HyperANF's systolic one, and it returns the same
// N(t), bit for bit, as recomputing next[v] = cur[v] ∪ ⋃_{u~v} cur[u]
// for every v and summing every counter's estimate each iteration:
//   - v unions in only the counters of neighbours that changed in the
//     previous iteration. An unchanged neighbour u holds its value of
//     two iterations back, which v's counter already contains, so that
//     union is a no-op — and a v with no changed neighbour cannot
//     change at all;
//   - the other buffer holds every counter's value of two iterations
//     back, so only a counter that changed in the previous iteration
//     is copied across before the unions;
//   - only changed counters are re-estimated. Each vertex's estimate
//     is cached, and N(t) sums the cache in vertex order: the same
//     floats added in the same order, so the run also stops at the
//     same iteration.
//
// The unions themselves are one hll Fold per vertex over the word
// offsets of its changed neighbours: the same register maxima as a
// Union per neighbour, with each of v's words loaded and stored once.
type Engine struct {
	opt Options
	// bank holds 2n counters, each words uint64s long; cur and next
	// are its halves, swapped every iteration.
	bank      []uint64
	cur, next []uint64
	words     int
	est       []float64 // est[v] = the estimate of v's counter in cur
	// changed[v] reports whether v's counter changed in the previous
	// iteration; grew collects the current iteration's flags.
	changed, grew []bool
	srcs          []int // word offsets in cur of v's changed neighbours
	nf            []float64
	counts        []float64
}

// NewEngine returns an engine with the given options; buffers grow on
// first use.
func NewEngine(opt Options) *Engine {
	return &Engine{opt: opt.withDefaults()}
}

// ensure sizes the buffers for n vertices and zeroes the cur half of
// the bank. The next half needs no zeroing: every counter changes at
// t = 0, so the first iteration copies all of them across.
func (e *Engine) ensure(n int) {
	w := hll.Words(e.opt.Bits)
	if need := 2 * n * w; cap(e.bank) < need {
		e.bank = make([]uint64, need)
		e.est = make([]float64, n)
		e.changed = make([]bool, n)
		e.grew = make([]bool, n)
	} else {
		clear(e.bank[:n*w])
	}
	e.cur, e.next, e.words = e.bank[:n*w], e.bank[n*w:2*n*w], w
	e.est, e.changed, e.grew = e.est[:n], e.changed[:n], e.grew[:n]
}

// counter returns vertex v's counter in the half c of the bank.
func (e *Engine) counter(c []uint64, v int) hll.Counter {
	return hll.FromWords(c[v*e.words : (v+1)*e.words])
}

// NeighbourhoodFunction is the buffer-reusing form of the package
// function; the returned slice aliases the engine and is valid until
// the next call. seed overrides the engine options' Seed.
func (e *Engine) NeighbourhoodFunction(g *graph.Graph, seed uint64) []float64 {
	n := g.NumVertices()
	e.ensure(n)
	for v := 0; v < n; v++ {
		c := e.counter(e.cur, v)
		c.AddHash(hll.Hash64(uint64(v), seed))
		e.est[v] = c.Estimate()
		e.changed[v] = true
	}
	e.nf = append(e.nf[:0], e.sum())
	w := e.words
	for t := 1; t <= e.opt.MaxIter; t++ {
		anyGrew := false
		cur, changed, srcs := e.cur, e.changed, e.srcs
		for v := 0; v < n; v++ {
			if changed[v] {
				copy(e.next[v*w:(v+1)*w], cur[v*w:(v+1)*w])
			}
			srcs = srcs[:0]
			for _, u := range g.Neighbors(v) {
				if changed[u] {
					srcs = append(srcs, int(u)*w)
				}
			}
			grew := false
			if len(srcs) > 0 {
				if c := e.counter(e.next, v); c.Fold(cur, srcs) {
					e.est[v] = c.Estimate()
					grew = true
					anyGrew = true
				}
			}
			e.grew[v] = grew
		}
		e.srcs = srcs
		e.cur, e.next = e.next, e.cur
		e.changed, e.grew = e.grew, e.changed
		e.nf = append(e.nf, e.sum())
		if !anyGrew {
			break
		}
	}
	return e.nf
}

// sum returns N(t): the cached estimates added in vertex order.
func (e *Engine) sum() float64 {
	var s float64
	for _, x := range e.est {
		s += x
	}
	return s
}

// DistanceDistribution is the buffer-reusing form of the package
// function; the returned Counts alias the engine and are valid until
// the next call.
func (e *Engine) DistanceDistribution(g *graph.Graph, seed uint64) stats.DistanceDistribution {
	nf := e.NeighbourhoodFunction(g, seed)
	n := float64(g.NumVertices())
	e.counts = e.counts[:0]
	var connected float64
	e.counts = append(e.counts, 0)
	for d := 1; d < len(nf); d++ {
		inc := (nf[d] - nf[d-1]) / 2
		if inc < 0 {
			inc = 0
		}
		e.counts = append(e.counts, inc)
		connected += inc
	}
	total := n * (n - 1) / 2
	disconnected := total - connected
	if disconnected < 0 {
		disconnected = 0
	}
	return stats.DistanceDistribution{Counts: e.counts, Disconnected: disconnected}
}

// DistanceDistribution converts a HyperANF run into the S_PDD shape:
// Counts[d] ~ (N(d) - N(d-1))/2 unordered pairs at distance d (negative
// increments from estimation noise are clamped to zero), and
// Disconnected = C(n,2) - connected. The distribution's Diameter() is
// the paper's lower bound S_DiamLB. It runs a fresh Engine.
func DistanceDistribution(g *graph.Graph, opt Options) stats.DistanceDistribution {
	return NewEngine(opt).DistanceDistribution(g, opt.Seed)
}

// Jackknifed runs HyperANF `runs` times with different hash seeds,
// derives a scalar statistic from each run's distance distribution, and
// returns the jackknife estimate and standard error — the paper's §6.3
// error-control procedure.
func Jackknifed(g *graph.Graph, opt Options, runs int, stat func(stats.DistanceDistribution) float64) (estimate, stderr float64) {
	if runs < 1 {
		runs = 1
	}
	vals := make([]float64, runs)
	for r := 0; r < runs; r++ {
		o := opt
		o.Seed = opt.Seed + uint64(r)*0x5DEECE66D + 1
		vals[r] = stat(DistanceDistribution(g, o))
	}
	return mathx.Jackknife(vals, func(xs []float64) float64 {
		m, _ := mathx.MeanStd(xs)
		return m
	})
}
