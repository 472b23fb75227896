// Package anf implements HyperANF (Boldi–Rosa–Vigna, WWW'11): an
// estimator of the neighbourhood function N(t) — the number of ordered
// vertex pairs within distance t — using one HyperLogLog counter per
// vertex, iteratively unioned over neighbourhoods until stabilization.
//
// The paper uses HyperANF to compute the distance-based statistics of
// §6.3 on each sampled possible world; DistanceDistribution does that
// for one world. The paper also repeats runs and jackknifes them to
// bound HyperANF's own error; no pipeline here does, so that step is
// not implemented.
//
// The engine runs each iteration as one hll Batch.Step over a list of
// vertices, and no output bit moves relative to the textbook iteration
// that unions every neighbour's counter and re-estimates every counter
// each round:
//   - a dense/sparse edge map, as in GBBS: an iteration where at least
//     7/8 of the vertices changed in the previous one lists every
//     vertex with all its neighbours, straight from word offsets built
//     once per world; any other lists only the vertices that changed
//     or have a changed neighbour (Engine states why both are exact);
//   - HyperANF's systolic estimates: only the counters that grow are
//     re-estimated, and N(t) sums cached estimates in vertex order;
//   - one fused pass per iteration: Step loads each listed counter,
//     folds in its sources, stores it in the other half of the bank
//     and, if it grew, counts its zero registers and ORs its words
//     while the counter sits in cache, summing its exact integer units
//     only when the zero count does not settle the estimate. On
//     amd64 with AVX2 the default 16-word counter stays in four 32-byte
//     vector registers while every neighbour folds in; elsewhere, and
//     for smaller counters, Go code keeps four words in flight. Both
//     pick the maximum the byte loop would, and hll's estimate turns
//     the counts into the register-order loop's float bit for bit.
package anf

import (
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/hll"
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
// estimates, the per-world word offsets and vertex lists, the
// neighbourhood function and the distance-count buffers are reused
// likewise. The possible-world estimation pipeline holds one Engine per
// worker and reuses it across all that worker's sampled worlds; the
// package-level functions run a fresh one. An Engine runs its
// iterations sequentially (the worlds are the parallel axis).
//
// It returns the same N(t), bit for bit, as recomputing
// next[v] = cur[v] ∪ ⋃_{u~v} cur[u] for every v and summing every
// counter's estimate each iteration:
//   - an unchanged neighbour's union is a no-op. A neighbour u that did
//     not change in the previous iteration holds its value of two
//     iterations back, which v's counter already contains, so a vertex
//     may fold in all its neighbours or only the changed ones, and a
//     vertex with no changed neighbour cannot change at all;
//   - the next half of the bank holds every counter's value of two
//     iterations back, which equals its current value unless it
//     changed in the previous iteration. So a sparse iteration lists
//     only the vertices that changed or have a changed neighbour, each
//     with all its neighbours: a listed counter is loaded from cur and
//     stored in next, and an unlisted one is already right in next. A
//     dense iteration lists every vertex, which is cheaper once at
//     least 7/8 of them changed (iterations 1–6 on a sampled dblp
//     world), since it needs no marking pass: building the sparse list
//     in every iteration measured 1.16 ms per world against 0.91 in
//     BenchmarkANFEvaluateShaped (medians of 15 alternating runs each
//     on a 2-vCPU Xeon with AVX2, the dense list faster in all 15);
//   - growth is judged against the counter loaded from cur, as a copy
//     into next followed by the unions would judge it;
//   - only counters that grew are re-estimated, from the same registers.
//     Each vertex's estimate is cached, and N(t) sums the cache in
//     vertex order: the same floats added in the same order, so the run
//     also stops at the same iteration. Every counter starts holding
//     one element, whose estimate is hll's Singleton.
type Engine struct {
	opt Options
	// bank holds 2n counters, each words uint64s long; cur and next
	// are its halves, swapped every iteration.
	bank      []uint64
	cur, next []uint64
	words     int
	est       []float64 // est[v] = the estimate of v's counter in cur
	// k holds the world's adjacency as word offsets into either half,
	// built once per world.
	k hll.Batch
	// all lists every vertex, the dense iterations' list; list is a
	// sparse iteration's list and mark its membership; grown holds the
	// counters the last iteration grew, in vertex order.
	all    []int32
	list   []int32
	mark   []bool
	grown  []hll.Growth
	nf     []float64
	counts []float64
}

// NewEngine returns an engine with the given options; buffers grow on
// first use.
func NewEngine(opt Options) *Engine {
	return &Engine{opt: opt.withDefaults()}
}

// ensure sizes the buffers for g, zeroes the cur half of the bank and
// records g's adjacency in the Batch. The next half needs no zeroing:
// every counter changes at t = 0, so the first iteration is dense and
// stores every counter.
func (e *Engine) ensure(g *graph.Graph) {
	n, w := g.NumVertices(), hll.Words(e.opt.Bits)
	if need := 2 * n * w; cap(e.bank) < need {
		e.bank = make([]uint64, need)
		e.est = make([]float64, n)
		e.mark = make([]bool, n)
		e.list = make([]int32, 0, n)
	} else {
		clear(e.bank[:n*w])
	}
	e.cur, e.next, e.words = e.bank[:n*w], e.bank[n*w:2*n*w], w
	e.est, e.mark = e.est[:n], e.mark[:n]
	for v := len(e.all); v < n; v++ {
		e.all = append(e.all, int32(v))
	}
	e.k.Reset(e.opt.Bits, n, 2*g.NumEdges())
	for v := 0; v < n; v++ {
		e.k.Add(g.Neighbors(v))
	}
}

// NeighbourhoodFunction is the buffer-reusing form of the package
// function; the returned slice aliases the engine and is valid until
// the next call. seed overrides the engine options' Seed.
func (e *Engine) NeighbourhoodFunction(g *graph.Graph, seed uint64) []float64 {
	e.ensure(g)
	one, w := e.k.Singleton(), e.words
	for v := range e.est {
		hll.FromWords(e.cur[v*w : (v+1)*w]).AddHash(hll.Hash64(uint64(v), seed))
		e.est[v] = one
	}
	e.nf = append(e.nf[:0], e.sum())
	list := e.all[:len(e.est)] // every counter changed at t = 0
	for t := 1; t <= e.opt.MaxIter; t++ {
		e.grown = e.k.Step(e.next, e.cur, list, e.grown[:0])
		for _, gr := range e.grown {
			e.est[gr.V] = e.k.Estimate(e.next, gr)
		}
		e.cur, e.next = e.next, e.cur
		e.nf = append(e.nf, e.sum())
		if len(e.grown) == 0 {
			break
		}
		list = e.nextList(g)
	}
	return e.nf
}

// nextList returns the list for the iteration after one that grew the
// counters in e.grown: every vertex if at least 7/8 of them grew, and
// otherwise, in vertex order, each vertex that grew or has a neighbour
// that grew.
func (e *Engine) nextList(g *graph.Graph) []int32 {
	n := len(e.est)
	if 8*len(e.grown) >= 7*n {
		return e.all[:n]
	}
	clear(e.mark)
	for _, gr := range e.grown {
		e.mark[gr.V] = true
		for _, u := range g.Neighbors(gr.V) {
			e.mark[u] = true
		}
	}
	e.list = e.list[:0]
	for v, marked := range e.mark {
		if marked {
			e.list = append(e.list, int32(v))
		}
	}
	return e.list
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
