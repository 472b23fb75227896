package core

import (
	"context"
	"errors"
	"fmt"

	"uncertaingraph/internal/graph"
	"uncertaingraph/internal/uncertain"
)

// Result is the output of Algorithm 1.
type Result struct {
	// G is the published (k, ε̃)-obfuscation.
	G *uncertain.Graph
	// Sigma is the smallest noise level at which an obfuscation was
	// found (the value reported in paper Table 2).
	Sigma float64
	// EpsTilde is the achieved non-obfuscated fraction (ε̃ <= ε).
	EpsTilde float64
	// Generations counts the GenerateObfuscation probes the search
	// runs, and Trials the trials it consumes — the work measure behind
	// the paper's Table 3 throughput. The search reads only whether a
	// probe succeeds, so a failed probe counts its t trials and a
	// successful one the index of its first success plus one; the
	// published probe, whose best-of-t attempt is the release, counts
	// all t. Both numbers are identical for every Workers value: trials
	// a parallel probe had in flight when its first success landed run
	// to completion but are not counted.
	Generations int
	Trials      int
}

// ErrNoObfuscation is returned when the doubling phase exhausts MaxSigma
// without finding any (k, ε)-obfuscation; the paper's remedy is to raise
// the candidate multiplier c (their two (*) cases use c = 3).
var ErrNoObfuscation = errors.New("core: no (k,eps)-obfuscation found up to MaxSigma; consider increasing C")

// Obfuscate is Algorithm 1: it finds, by binary search over the noise
// parameter σ, a minimal-uncertainty (k, ε)-obfuscation of g.
//
// The σ probes run one at a time, in the order the search visits them;
// params.Workers parallelizes inside each probe (its trials, and each
// trial's entropy scan). A probe claims its trials in index order and
// stops claiming at its first success, which decides it; once the
// search ends, the published probe runs the rest of its t trials, so
// the release is its best-of-t attempt, as GenerateObfuscation would
// return it. The returned Result (σ, ε̃, published pairs, and both
// work counters) is bit-identical for every Workers value.
//
// Cancelling ctx aborts the search: the running probe observes it at
// trial and scan-chunk granularity, its trial goroutines are joined,
// and ctx.Err() is returned. A nil ctx never cancels. Cancellation
// cannot perturb results — a run that completes returns exactly what an
// uncancelled run would have.
func Obfuscate(ctx context.Context, g *graph.Graph, params Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if name, v := NonFinite(params); name != "" {
		return nil, fmt.Errorf("core: %s = %v must be finite", name, v)
	}
	params = params.withDefaults()
	if params.K < 1 {
		return nil, fmt.Errorf("core: k = %v must be >= 1", params.K)
	}
	if params.Eps < 0 || params.Eps >= 1 {
		return nil, fmt.Errorf("core: eps = %v must be in [0, 1)", params.Eps)
	}
	if g.NumEdges() == 0 {
		return nil, errors.New("core: graph has no edges to obfuscate")
	}
	params.Seed = params.resolveSeed()
	r := newRun(g, params)

	res := &Result{}
	// published is the latest successful probe, the only one whose
	// best-of-t attempt the search can still publish.
	var published *probe
	decide := func(sigma float64, total int) (bool, error) {
		p := newProbe(r, sigma)
		p.runTrials(ctx, true)
		// A probe that cancellation cut short has no pure outcome:
		// consuming it would move the search.
		if err := ctx.Err(); err != nil {
			return false, err
		}
		res.Generations++
		res.Trials += p.decisionTrials()
		if params.Progress != nil {
			params.Progress(res.Generations, total)
		}
		ok := p.win.succeeded()
		if ok {
			published, res.Sigma = p, sigma
		}
		return ok, nil
	}

	// Doubling phase (lines 1-6): find a feasible upper bound σ_u. The
	// probe total is unknown until this phase bounds the search, so
	// Progress reports total 0 here.
	sigmaU := params.SigmaInit
	for {
		ok, err := decide(sigmaU, 0)
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
		sigmaU *= 2
		if sigmaU > params.MaxSigma {
			return nil, ErrNoObfuscation
		}
	}

	// Binary search (lines 8-12) on [0, σ_u], keeping the last success.
	sigmaL := 0.0
	for sigmaL+params.Delta < sigmaU {
		sigma := (sigmaL + sigmaU) / 2
		ok, err := decide(sigma, res.Generations+binarySteps(sigmaU-sigmaL, params.Delta))
		if err != nil {
			return nil, err
		}
		if ok {
			sigmaU = sigma
		} else {
			sigmaL = sigma
		}
	}

	// Best-of-t for the release: run the published probe's trials that
	// its decision did not need.
	published.runTrials(ctx, false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Trials += params.Trials - published.decisionTrials()
	res.G, res.EpsTilde = published.win.att.G, published.win.att.EpsTilde
	return res, nil
}

// binarySteps returns how many more midpoint probes the binary search
// consumes before an interval of the given width shrinks below delta —
// the remaining-work estimate behind Params.Progress totals.
func binarySteps(width, delta float64) int {
	steps := 0
	for width > delta && steps < 64 {
		width /= 2
		steps++
	}
	return steps
}
