package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
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
// are examined (a later trial may beat an earlier success), so the
// result is bit-identical for every Workers value (including 1).
//
// Params that Obfuscate rejects as non-finite (see NonFinite) yield a
// failed attempt.
func GenerateObfuscation(g *graph.Graph, sigma float64, params Params) Attempt {
	if name, _ := NonFinite(params); name != "" {
		return Attempt{EpsTilde: math.Inf(1)}
	}
	params = params.withDefaults()
	params.Seed = params.resolveSeed()
	att, _ := generateObfuscation(nil, newRun(g, params), sigma)
	return att
}

// run is the state every σ probe of one Algorithm 1 run shares. All of
// it is read-only once built, except the arena pool.
type run struct {
	g      *graph.Graph
	params Params
	// values are the property values of g, computed once per run:
	// Property.Values may intern into its instance (P2, P3), so the
	// probes share one result instead of calling it themselves.
	values  []int
	degrees []int
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
		degrees: g.Degrees(),
		edges:   newEdgeTable(g, targetEC),
	}
}

// generateObfuscation runs Algorithm 2 for one σ probe of r, whose
// params carry a resolved Seed. Cancelling ctx abandons the whole probe
// (Obfuscate passes its caller's context); a nil ctx never cancels. The
// attempt of an abandoned probe is not its pure value. The second
// return value reports how many trials the probe examines — always t,
// since best-of-t selection must look at every trial — the work measure
// behind Result.Trials.
func generateObfuscation(ctx context.Context, r *run, sigma float64) (Attempt, int) {
	g, params := r.g, r.params
	n := g.NumVertices()
	dist := params.Property.Distance

	// Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2).
	uniq := UniquenessScores(r.values, dist, sigma)

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
	aliasQ := randx.NewAlias(weights)

	failed := Attempt{EpsTilde: math.Inf(1)}
	if aliasQ == nil {
		// All mass excluded (tiny graphs with large ε) — cannot sample.
		return failed, params.Trials
	}

	// Split the worker budget between the two parallel levels: up to
	// trialWorkers trials in flight, each scanning with scanWorkers, so
	// a probe stays within params.Workers busy goroutines.
	workers := params.workerCount()
	trialWorkers := workers
	if trialWorkers > params.Trials {
		trialWorkers = params.Trials
	}
	scanWorkers := workers / trialWorkers
	if scanWorkers < 1 {
		scanWorkers = 1
	}

	// runTrial is a pure function of its trial index: all randomness
	// comes from the (seed, σ, trial) stream, and the arena only lends
	// buffers, so results are independent of scheduling. It bails out
	// between stages — and per scan chunk — when the probe was
	// cancelled.
	runTrial := func(trial int) Attempt {
		if hook := params.beforeTrial; hook != nil {
			hook(sigma, trial)
		}
		if cancelled(ctx) {
			return failed
		}
		a, _ := r.arenas.Get().(*trialArena)
		if a == nil {
			a = &trialArena{}
		}
		defer r.arenas.Put(a)
		rng := trialRng(params.Seed, sigma, trial)
		ec, ok := r.edges.selectCandidates(a, aliasQ, inH, rng)
		if !ok {
			return failed
		}
		pairs := assignProbabilities(a, ec, uniq, sigma, params, rng)
		// New copies out of the arena's pairs: the graph owns its arrays.
		ug, err := uncertain.New(n, pairs)
		if err != nil {
			// Candidate construction guarantees validity; a failure here
			// is a programming error worth surfacing loudly.
			panic(err)
		}
		if cancelled(ctx) {
			return failed
		}
		// Line 20: fraction of vertices not k-obfuscated.
		model := adversary.UncertainModel{
			G:              ug,
			ExactThreshold: params.ExactThreshold,
			Workers:        scanWorkers,
			Ctx:            ctx,
		}
		epsPrime := adversary.NotObfuscatedFraction(model, r.degrees, params.K)
		if cancelled(ctx) {
			// The scan aborted early; its ε' is not the pure probe value.
			return failed
		}
		// Line 21: the trial succeeds when ε' stays within the budget.
		if epsPrime <= params.Eps {
			return Attempt{EpsTilde: epsPrime, G: ug}
		}
		return failed
	}

	// Deterministic winner under any completion order: the success with
	// the lowest ε̃, ties broken by the lower trial index — the attempt
	// the sequential best-of-t loop (strict `<` against the running
	// best) keeps. Folding into a running best as trials finish, rather
	// than collecting all t attempts, lets loser graphs (each ~c·|E|
	// pairs) be reclaimed while later trials still run.
	win := winner{att: failed, idx: params.Trials}
	_ = parallel.ForCtx(ctx, params.Trials, trialWorkers, func(i int) {
		win.offer(runTrial(i), i)
	})
	return win.att, params.Trials
}

// winner folds trial outcomes into the deterministic best-of-t choice:
// lexicographic minimum of (ε̃, trial index) over the successes.
type winner struct {
	mu  sync.Mutex
	att Attempt
	idx int
}

func (w *winner) offer(att Attempt, trial int) {
	if att.Failed() {
		return
	}
	w.mu.Lock()
	if att.EpsTilde < w.att.EpsTilde ||
		(att.EpsTilde == w.att.EpsTilde && trial < w.idx) {
		w.att, w.idx = att, trial
	}
	w.mu.Unlock()
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
// 6-12, and the per-pair uniqueness and output pairs of lines 13-19. A
// run reuses its arenas across trials and probes; nothing a trial
// returns aliases one.
type trialArena struct {
	slots    []pairSlot
	ec       []candidate
	pairUniq []float64
	pairs    []uncertain.Pair
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
// runs reproducible).
func topUniqueSet(uniq []float64, count int) []bool {
	set := make([]bool, len(uniq))
	if count <= 0 {
		return set
	}
	if count > len(uniq) {
		count = len(uniq)
	}
	idx := make([]int, len(uniq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if uniq[idx[a]] != uniq[idx[b]] {
			return uniq[idx[a]] > uniq[idx[b]]
		}
		return idx[a] < idx[b]
	})
	for _, v := range idx[:count] {
		set[v] = true
	}
	return set
}
