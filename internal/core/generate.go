package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"

	"uncertaingraph/internal/adversary"
	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/mathx"
	"uncertaingraph/internal/parallel"
	"uncertaingraph/internal/randx"
	"uncertaingraph/internal/uncertain"
)

// Attempt is the outcome of one GenerateObfuscation call.
type Attempt struct {
	// EpsTilde is the achieved fraction of non-k-obfuscated vertices;
	// math.Inf(1) when no trial met the ε bound.
	EpsTilde float64
	// G is the best uncertain graph found, nil on failure.
	G *uncertain.Graph
}

// Failed reports whether the attempt found no (k, ε)-obfuscation.
func (a Attempt) Failed() bool { return math.IsInf(a.EpsTilde, 1) }

// GenerateObfuscation is Algorithm 2: it tries (up to t times) to build
// a (k, ε)-obfuscation of g with uncertainty parameter sigma, returning
// the best attempt.
//
// Trials run on up to params.Workers goroutines, each driving an RNG
// stream derived from (params.Seed, σ, trial index), and the winner is
// the success with the lowest ε̃, ties broken by the lower trial index —
// the same attempt the sequential best-of-t loop keeps. All t trials
// run (a later trial may beat an earlier success), so the result is
// bit-identical for every Workers value (including 1). Obfuscate runs
// all t only for the probe it publishes; see Result.Trials.
//
// Params that Obfuscate rejects as non-finite (see NonFinite) yield a
// failed attempt.
func GenerateObfuscation(g *graph.Graph, sigma float64, params Params) Attempt {
	if name, _ := NonFinite(params); name != "" {
		return Attempt{EpsTilde: math.Inf(1)}
	}
	params = params.withDefaults()
	params.Seed = params.resolveSeed()
	p := newProbe(newRun(g, params), sigma)
	p.runTrials(nil, false)
	return p.win.att
}

// run is the state every σ probe of one Algorithm 1 run shares. All of
// it is read-only once built, except the arena pool.
type run struct {
	g      *graph.Graph
	params Params
	// values are the property values of g, computed once per run:
	// Property.Values may intern values into its instance, so the
	// probes share one result instead of calling it themselves.
	values []int
	// degrees is the (k, ε) check of line 20, prepared once per run
	// for g's degrees.
	degrees *adversary.Assignment
	edges   *edgeTable
	arenas  sync.Pool // of *trialArena, lent to the running trials
}

func newRun(g *graph.Graph, params Params) *run {
	targetEC := int(math.Round(params.C * float64(g.NumEdges())))
	if n := g.NumVertices(); targetEC > n*(n-1)/2 {
		targetEC = n * (n - 1) / 2
	}
	return &run{
		g:       g,
		params:  params,
		values:  params.Property.Values(g),
		degrees: adversary.NewAssignment(g.Degrees()),
		edges:   newEdgeTable(g, targetEC),
	}
}

// probe is one σ probe of Algorithm 2 on r, whose params carry a
// resolved Seed: lines 1-3, run once, and the trials run so far,
// folded into the best-of-t winner. Each trial is a pure function of
// (r, σ, trial index), so a probe may run its trials over several
// runTrials calls and still reach the winner one call over all t
// would: Obfuscate first runs a probe's trials only until one succeeds,
// which is all its search reads, and completes best-of-t for the one
// probe it publishes.
type probe struct {
	r     *run
	sigma float64
	uniq  []float64
	inH   []bool
	// aliasQ is Q of line 3, nil when lines 1-2 leave no vertex with
	// mass to sample (tiny graphs with large ε): every trial fails.
	aliasQ *randx.Alias
	win    winner
}

func newProbe(r *run, sigma float64) *probe {
	params := r.params
	n := r.g.NumVertices()

	// Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2).
	uniq := UniquenessScores(r.values, params.Property.Distance, sigma)

	// Line 2: exclude the ⌈ε/2·n⌉ most unique vertices from perturbation.
	hSize := int(math.Ceil(params.Eps / 2 * float64(n)))
	if params.DisableHExclusion {
		hSize = 0
	}
	inH := topUniqueSet(uniq, hSize)

	// Line 3: sampling distribution Q(v) ∝ U_σ(P(v)) on V \ H.
	weights := make([]float64, n)
	for v, u := range uniq {
		if !inH[v] {
			weights[v] = u
		}
	}
	return &probe{
		r: r, sigma: sigma, uniq: uniq, inH: inH,
		aliasQ: randx.NewAlias(weights),
		win:    winner{att: Attempt{EpsTilde: math.Inf(1)}, idx: params.Trials, first: params.Trials},
	}
}

// runTrials runs the probe's trials from the first one not yet run,
// claiming them in index order. With decide set, it stops claiming once
// a trial has succeeded; trials already in flight then finish and are
// kept. So the trials run always form a prefix of [0, t), and it holds
// the first successful trial whenever one exists. Cancelling ctx
// abandons the probe (a nil ctx never cancels): its outcome is then
// not its pure value.
func (p *probe) runTrials(ctx context.Context, decide bool) {
	if p.aliasQ == nil {
		return
	}
	params, from := p.r.params, p.win.ran
	stop := func() bool {
		return cancelled(ctx) || decide && p.win.succeeded()
	}
	parallel.For(params.Trials-from, min(params.workerCount(), params.Trials), stop, func(_, i int) {
		p.win.offer(p.trial(ctx, from+i), from+i)
	})
}

// decisionTrials is the number of trials a sequential search examines
// to decide the probe: up to and including its first success, or all t
// when none succeeds. It depends on the trials' outcomes alone, never
// on how many ran in parallel past the first success.
func (p *probe) decisionTrials() int {
	return min(p.win.first+1, p.r.params.Trials)
}

// trial runs lines 4-21 as trial i of the probe. It is a pure function
// of its index: all randomness comes from the (seed, σ, trial) stream,
// and the arena only lends buffers, so results are independent of
// scheduling. It bails out between stages — and per scan chunk — when
// the probe was cancelled.
func (p *probe) trial(ctx context.Context, i int) Attempt {
	r, params := p.r, p.r.params
	failed := Attempt{EpsTilde: math.Inf(1)}
	if hook := params.beforeTrial; hook != nil {
		hook(p.sigma, i)
	}
	if cancelled(ctx) {
		return failed
	}
	a, _ := r.arenas.Get().(*trialArena)
	if a == nil {
		a = &trialArena{}
	}
	defer r.arenas.Put(a)
	rng := trialRng(params.Seed, p.sigma, i)
	ec, ok := r.edges.selectCandidates(a, p.aliasQ, p.inH, rng)
	if !ok {
		return failed
	}
	pairs := assignProbabilities(a, ec, p.uniq, p.sigma, params, rng)
	// Lines 20-21: the trial succeeds when the fraction ε' of vertices
	// not k-obfuscated stays within ε, checked over the arena's
	// incidence lists rather than a graph, on the trial's own goroutine.
	// The check stops once ε' > ε is certain; a passing check returns
	// the exact ε'.
	a.inc.reset(r.g.NumVertices(), pairs)
	model := adversary.UncertainModel{
		G:              &a.inc,
		ExactThreshold: params.ExactThreshold,
		Workers:        1,
		Ctx:            ctx,
	}
	epsPrime, ok := r.degrees.Check(model, params.K, params.Eps)
	if cancelled(ctx) {
		// The scan aborted early; its ε' is not the pure probe value.
		return failed
	}
	// Only a success can be published, so only a success builds a
	// graph; New copies out of the arena's pairs, and the graph owns
	// its arrays.
	if !ok {
		return failed
	}
	ug, err := uncertain.New(r.g.NumVertices(), pairs)
	if err != nil {
		// Candidate construction guarantees validity; a failure here
		// is a programming error worth surfacing loudly.
		panic(err)
	}
	return Attempt{EpsTilde: epsPrime, G: ug}
}

// winner folds trial outcomes into the deterministic best-of-t choice,
// under any completion order: the lexicographic minimum of (ε̃, trial
// index) over the successes — the attempt the sequential best-of-t loop
// (strict `<` against the running best) keeps. Folding into a running
// best as trials finish, rather than collecting all t attempts, lets
// loser graphs (each ~c·|E| pairs) be reclaimed while later trials
// still run.
type winner struct {
	mu    sync.Mutex
	att   Attempt
	idx   int
	first int // lowest successful trial index, t while none succeeded
	ran   int // trials folded
}

func (w *winner) offer(att Attempt, trial int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ran++
	if att.Failed() {
		return
	}
	w.first = min(w.first, trial)
	if att.EpsTilde < w.att.EpsTilde ||
		(att.EpsTilde == w.att.EpsTilde && trial < w.idx) {
		w.att, w.idx = att, trial
	}
}

// succeeded reports whether some trial folded so far succeeded.
func (w *winner) succeeded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.att.Failed()
}

// cancelled reports whether the probe's context has been cancelled; a
// nil context never is.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// candidate is one pair of E_C, flagged by whether it is an original edge.
type candidate struct {
	u, v   int32
	isEdge bool
}

// trialArena holds one trial's buffers: the pair table and E_C of lines
// 6-12, the per-pair uniqueness and output pairs of lines 13-19, and
// the incidence lists line 20 scans. A run reuses its arenas across
// trials and probes; nothing a trial returns aliases one.
type trialArena struct {
	slots    []pairSlot
	ec       []candidate
	pairUniq []float64
	pairs    []uncertain.Pair
	inc      incidence
}

// incidence lists, per vertex, the probabilities of its incident
// candidate pairs in candidate-list order: the order in which
// uncertain.New indexes them, so every degree law, and every entropy,
// equals the one the graph built from the same pairs gives. It
// implements adversary.Incidence over arena buffers.
type incidence struct {
	off []int // v's probabilities are p[off[v]:off[v+1]]
	p   []float64
}

// reset rebuilds the lists for pairs on n vertices.
func (in *incidence) reset(n int, pairs []uncertain.Pair) {
	// Counting into off[v+2] makes the prefix sum leave v's start in
	// off[v+1]; filling v's probabilities then advances off[v+1] to
	// v's end, which is v+1's start.
	off := slices.Grow(in.off[:0], n+2)[:n+2]
	clear(off)
	for _, pr := range pairs {
		off[pr.U+2]++
		off[pr.V+2]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	p := slices.Grow(in.p[:0], 2*len(pairs))[:2*len(pairs)]
	for _, pr := range pairs {
		p[off[pr.U+1]] = pr.P
		off[pr.U+1]++
		p[off[pr.V+1]] = pr.P
		off[pr.V+1]++
	}
	in.off, in.p = off[:n+1], p
}

// NumVertices implements adversary.Incidence.
func (in *incidence) NumVertices() int { return len(in.off) - 1 }

// IncidentCount implements adversary.Incidence.
func (in *incidence) IncidentCount(v int) int { return in.off[v+1] - in.off[v] }

// AppendIncidentProbs implements adversary.Incidence.
func (in *incidence) AppendIncidentProbs(dst []float64, v int) []float64 {
	return append(dst, in.p[in.off[v]:in.off[v+1]]...)
}

// pairSlot is one slot of a pair table: a graph.PairKey (0, which no
// pair u < v has, marks an empty slot) and the pair's position in E_C,
// or -1 for an original edge removed from E_C.
type pairSlot struct {
	key int64
	pos int32
}

// edgeTable is the starting point of lines 6-12, built once per run
// (it depends only on g and c): E_C = E in ForEachEdge order, and the
// open-addressing pair table holding every original edge at its E_C
// position. The table has at least twice as many slots as a trial can
// ever fill — the |E| edges, which stay in the table, flagged, after
// removal from E_C, plus at most target non-edges, since non-edges are
// never removed and |E_C| moves by ±1 per draw from |E| <= target up to
// target — so linear probing always finds a free slot, and the table
// needs neither growth nor a fallback.
type edgeTable struct {
	n, target int
	ec        []candidate
	slots     []pairSlot
	shift     uint // 64 - log2(len(slots))
}

func newEdgeTable(g *graph.Graph, target int) *edgeTable {
	bits := 4
	for 1<<bits < 2*(g.NumEdges()+target) {
		bits++
	}
	e := &edgeTable{
		n:      g.NumVertices(),
		target: target,
		ec:     make([]candidate, 0, g.NumEdges()),
		slots:  make([]pairSlot, 1<<bits),
		shift:  uint(64 - bits),
	}
	g.ForEachEdge(func(u, v int) {
		key := graph.PairKey(u, v, e.n)
		*e.find(e.slots, key) = pairSlot{key: key, pos: int32(len(e.ec))}
		e.ec = append(e.ec, candidate{u: int32(u), v: int32(v), isEdge: true})
	})
	return e
}

// find returns the slot of slots holding key, or the empty slot where
// key belongs (Fibonacci hashing, linear probing).
func (e *edgeTable) find(slots []pairSlot, key int64) *pairSlot {
	mask := len(slots) - 1
	i := int((uint64(key) * 0x9E3779B97F4A7C15) >> e.shift)
	for slots[i].key != key && slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return &slots[i]
}

// selectCandidates implements lines 6-12 of Algorithm 2 in the arena's
// buffers: E_C starts as E; pairs drawn from Q×Q are removed from E_C
// when they are original edges and added when they are non-edges,
// until |E_C| = target. The returned E_C lives in the arena.
//
// One table lookup per draw answers both questions the lines ask — is
// the pair an original edge, and is it in E_C (and where) — since every
// original edge keeps its slot after leaving E_C: a pair in the table
// at position -1 is a removed edge, one at a position p is in E_C (an
// edge when ec[p].isEdge), and a pair absent from it is a non-edge not
// in E_C.
func (e *edgeTable) selectCandidates(a *trialArena, aliasQ *randx.Alias, inH []bool, rng *rand.Rand) ([]candidate, bool) {
	slots := append(a.slots[:0], e.slots...)
	a.slots = slots
	ec := append(a.ec[:0], e.ec...)
	// Give up after a generous number of draws; with c a small constant
	// and |E| << |V2| the loop normally ends after ~(c-1)|E| additions.
	maxDraws := 400*(e.target+16) + 4096
	for draws := 0; len(ec) != e.target; draws++ {
		if draws > maxDraws {
			a.ec = ec
			return nil, false
		}
		u := aliasQ.Draw(rng)
		v := aliasQ.Draw(rng)
		if u == v || inH[u] || inH[v] {
			continue
		}
		key := graph.PairKey(u, v, e.n)
		s := e.find(slots, key)
		switch {
		case s.key == 0:
			// Line 11: add the non-edge, new to E_C.
			*s = pairSlot{key: key, pos: int32(len(ec))}
			if u > v {
				u, v = v, u
			}
			ec = append(ec, candidate{u: int32(u), v: int32(v)})
		case s.pos >= 0 && ec[s.pos].isEdge:
			// Line 10: remove the original edge from E_C; the last
			// candidate takes its position.
			last := len(ec) - 1
			moved := ec[last]
			ec[s.pos] = moved
			e.find(slots, graph.PairKey(int(moved.u), int(moved.v), e.n)).pos = s.pos
			s.pos = -1
			ec = ec[:last]
		}
	}
	a.ec = ec
	return ec, true
}

// assignProbabilities implements lines 13-19: redistribute σ over E_C in
// proportion to pair uniqueness (Eq. 7), draw perturbations r_e from
// R_σ(e) (or uniformly, for the q white-noise fraction), and convert
// them to edge probabilities. rng is the calling trial's private stream;
// the returned pairs live in the arena.
func assignProbabilities(a *trialArena, ec []candidate, uniq []float64, sigma float64, params Params, rng *rand.Rand) []uncertain.Pair {
	// U_σ(e) = (U_σ(P(u)) + U_σ(P(v))) / 2; Eq. 7 scales so the mean of
	// σ(e) over E_C equals σ.
	pairUniq := slices.Grow(a.pairUniq[:0], len(ec))[:len(ec)]
	var total float64
	for i, c := range ec {
		pairUniq[i] = (uniq[c.u] + uniq[c.v]) / 2
		total += pairUniq[i]
	}
	pairs := slices.Grow(a.pairs[:0], len(ec))[:len(ec)]
	for i, c := range ec {
		sigmaE := 0.0
		if total > 0 {
			sigmaE = sigma * float64(len(ec)) * pairUniq[i] / total
		}
		var re float64
		if params.Q > 0 && rng.Float64() < params.Q {
			re = rng.Float64()
		} else {
			re = mathx.SampleTruncNormal(sigmaE, rng)
		}
		p := re
		if c.isEdge {
			p = 1 - re
		}
		pairs[i] = uncertain.Pair{U: int(c.u), V: int(c.v), P: p}
	}
	a.pairUniq, a.pairs = pairUniq, pairs
	return pairs
}

// topUniqueSet returns the membership flags of the count vertices with
// the largest uniqueness scores (ties broken by lower index, making
// runs reproducible). It keeps the best vertices seen so far in a
// bounded min-heap whose root ranks lowest, so picking count of n costs
// O(n log count) rather than a sort of all n.
func topUniqueSet(uniq []float64, count int) []bool {
	set := make([]bool, len(uniq))
	count = min(count, len(uniq))
	if count <= 0 {
		return set
	}
	// below reports whether vertex a ranks below vertex b.
	below := func(a, b int) bool {
		if uniq[a] != uniq[b] {
			return uniq[a] < uniq[b]
		}
		return a > b
	}
	h := make([]int, 0, count)
	for v := range uniq {
		i := len(h)
		if i < count {
			// Sift v up past every parent that ranks above it.
			h = append(h, v)
			for i > 0 && below(v, h[(i-1)/2]) {
				h[i], i = h[(i-1)/2], (i-1)/2
			}
			h[i] = v
			continue
		}
		if !below(h[0], v) {
			continue
		}
		// v outranks the lowest kept vertex: it takes the root's place
		// and sinks below every child that ranks lower.
		i = 0
		for c := 1; c < count; c = 2*i + 1 {
			if c+1 < count && below(h[c+1], h[c]) {
				c++
			}
			if !below(h[c], v) {
				break
			}
			h[i], i = h[c], c
		}
		h[i] = v
	}
	for _, v := range h {
		set[v] = true
	}
	return set
}
