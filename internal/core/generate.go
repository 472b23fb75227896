package core

import (
	"context"
	"math"
	"math/rand"
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
func GenerateObfuscation(g *graph.Graph, sigma float64, params Params) Attempt {
	params = params.withDefaults()
	params.Seed = params.resolveSeed()
	att, _ := generateObfuscation(nil, g, params.Property.Values(g), sigma, params)
	return att
}

// generateObfuscation runs Algorithm 2 with a pre-resolved params.Seed
// on the property values of g, computed once per run by the caller:
// Property.Values may intern into its instance (P2, P3), so concurrent
// probes must share one result instead of calling it themselves.
// Cancelling ctx abandons the whole probe (used by Obfuscate to discard
// speculative σ candidates and to propagate caller cancellation); a nil
// ctx never cancels. The second return value reports how many trials
// the probe examines — always t, since best-of-t selection must look at
// every trial — the work measure behind Result.Trials.
func generateObfuscation(ctx context.Context, g *graph.Graph, values []int, sigma float64, params Params) (Attempt, int) {
	n := g.NumVertices()
	dist := params.Property.Distance

	// Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2).
	uniq := UniquenessScores(values, dist, sigma)

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

	degrees := g.Degrees()
	targetEC := int(math.Round(params.C * float64(g.NumEdges())))
	if max := n * (n - 1) / 2; targetEC > max {
		targetEC = max
	}

	// Split the worker budget between the two parallel levels: up to
	// trialWorkers trials in flight, each scanning with scanWorkers, so
	// one probe stays within ~params.Workers busy goroutines. (Obfuscate
	// may hold a few speculative probes in flight on top — see Params.)
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
	// comes from the (seed, σ, trial) stream, so results are independent
	// of scheduling. It bails out between stages — and per scan chunk —
	// when the probe was cancelled.
	runTrial := func(trial int) Attempt {
		if cancelled(ctx) {
			return failed
		}
		rng := trialRng(params.Seed, sigma, trial)
		ec, ok := selectCandidates(g, aliasQ, inH, targetEC, rng)
		if !ok {
			return failed
		}
		pairs := assignProbabilities(ec, uniq, sigma, params, rng)
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
		epsPrime := adversary.NotObfuscatedFraction(model, degrees, params.K)
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

// selectCandidates implements lines 6-12 of Algorithm 2: E_C starts as E;
// pairs drawn from Q×Q are removed from E_C when they are original edges
// and added when they are non-edges, until |E_C| = target.
func selectCandidates(g *graph.Graph, aliasQ *randx.Alias, inH map[int]bool, target int, rng *rand.Rand) ([]candidate, bool) {
	n := g.NumVertices()
	ec := make([]candidate, 0, target+16)
	index := make(map[int64]int32, target+16)
	g.ForEachEdge(func(u, v int) {
		index[graph.PairKey(u, v, n)] = int32(len(ec))
		ec = append(ec, candidate{u: int32(u), v: int32(v), isEdge: true})
	})
	// Give up after a generous number of draws; with c a small constant
	// and |E| << |V2| the loop normally ends after ~(c-1)|E| additions.
	maxDraws := 400*(target+16) + 4096
	for draws := 0; len(ec) != target; draws++ {
		if draws > maxDraws {
			return nil, false
		}
		u := aliasQ.Draw(rng)
		v := aliasQ.Draw(rng)
		if u == v || inH[u] || inH[v] {
			continue
		}
		key := graph.PairKey(u, v, n)
		if g.HasEdge(u, v) {
			// Line 10: remove the original edge from E_C if still there.
			if pos, ok := index[key]; ok {
				last := int32(len(ec) - 1)
				moved := ec[last]
				ec[pos] = moved
				index[graph.PairKey(int(moved.u), int(moved.v), n)] = pos
				ec = ec[:last]
				delete(index, key)
			}
		} else {
			// Line 11: add the non-edge if new.
			if _, ok := index[key]; !ok {
				index[key] = int32(len(ec))
				uu, vv := u, v
				if uu > vv {
					uu, vv = vv, uu
				}
				ec = append(ec, candidate{u: int32(uu), v: int32(vv), isEdge: false})
			}
		}
	}
	return ec, true
}

// assignProbabilities implements lines 13-19: redistribute σ over E_C in
// proportion to pair uniqueness (Eq. 7), draw perturbations r_e from
// R_σ(e) (or uniformly, for the q white-noise fraction), and convert
// them to edge probabilities. rng is the calling trial's private stream.
func assignProbabilities(ec []candidate, uniq []float64, sigma float64, params Params, rng *rand.Rand) []uncertain.Pair {
	// U_σ(e) = (U_σ(P(u)) + U_σ(P(v))) / 2; Eq. 7 scales so the mean of
	// σ(e) over E_C equals σ.
	pairUniq := make([]float64, len(ec))
	var total float64
	for i, c := range ec {
		pairUniq[i] = (uniq[c.u] + uniq[c.v]) / 2
		total += pairUniq[i]
	}
	pairs := make([]uncertain.Pair, len(ec))
	for i, c := range ec {
		sigmaE := 0.0
		if total > 0 {
			sigmaE = sigma * float64(len(ec)) * pairUniq[i] / total
		}
		var re float64
		if params.Q > 0 && rng.Float64() < params.Q {
			re = rng.Float64()
		} else {
			re = mathx.NewTruncNormal(sigmaE).Sample(rng)
		}
		p := re
		if c.isEdge {
			p = 1 - re
		}
		pairs[i] = uncertain.Pair{U: int(c.u), V: int(c.v), P: p}
	}
	return pairs
}

// topUniqueSet returns the indices of the count largest uniqueness
// scores (ties broken by lower index, making runs reproducible).
func topUniqueSet(uniq []float64, count int) map[int]bool {
	set := make(map[int]bool, count)
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
