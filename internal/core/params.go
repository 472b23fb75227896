package core

import (
	"math"
	"math/rand"
	"runtime"

	"uncertaingraph/internal/randx"
)

// Params collects the inputs of Algorithms 1 and 2 with the paper's
// experimental defaults.
type Params struct {
	// K is the obfuscation level k >= 1 (paper uses 20, 60, 100).
	K float64
	// Eps is the tolerated fraction of non-obfuscated vertices
	// (paper uses 1e-3 and 1e-4).
	Eps float64
	// C is the candidate-set multiplier: |E_C| = C*|E| (zero selects
	// the paper's 2; their fallback cases use 3). Values below 1 are
	// raised to 1.
	C float64
	// Q is the white-noise fraction: each candidate pair draws its
	// perturbation uniformly from [0,1] with this probability
	// (paper: 0.01).
	Q float64
	// Trials is the number t of attempts per GenerateObfuscation call
	// (paper: 5). Zero selects 5.
	Trials int
	// Delta terminates the binary search once the σ interval is shorter
	// than this (zero selects 1e-8, matching the resolution implied by
	// the paper's reported σ values).
	Delta float64
	// SigmaInit is the initial upper bound of the search (zero selects
	// the paper's 1).
	SigmaInit float64
	// MaxSigma aborts the doubling phase when σ_u exceeds it (zero
	// selects 1024).
	MaxSigma float64
	// ExactThreshold is the incident-pair count up to which the degree
	// distribution is computed by the exact DP (<= 0 selects
	// pbinom.DefaultExactThreshold).
	ExactThreshold int
	// Property scores vertex uniqueness; nil selects DegreeProperty.
	Property Property
	// DisableHExclusion skips line 2 of Algorithm 2 (the removal of the
	// ⌈ε/2·n⌉ most unique vertices from the perturbation): an ablation
	// knob showing why spending noise on hopeless hubs wastes the
	// budget. Off (false) reproduces the paper.
	DisableHExclusion bool
	// Workers bounds the busy goroutines of a run: the trials of one σ
	// probe run on up to Workers goroutines, claimed in index order,
	// and the adversary's vertex scan inside each trial gets the
	// remaining budget (Workers / concurrent trials). Obfuscate runs
	// one σ probe at a time and stops claiming a probe's trials at its
	// first success; trials already in flight then finish. Zero selects
	// GOMAXPROCS. The result is bit-identical for every Workers value:
	// each (σ, trial) pair owns a seed-derived RNG stream and the winner
	// is the best-ε̃ trial (ties to the lower index), so Workers trades
	// wall-clock time, and the trials run past a first success, only.
	Workers int
	// Seed is the base seed from which every per-probe, per-trial RNG
	// stream is derived (randx.Derive). Zero selects 1.
	Seed int64
	// Progress, when non-nil, is invoked from the search goroutine after
	// each consumed σ probe with the number of probes consumed so far
	// and an estimated total (0 while the doubling phase has not yet
	// bounded the search). It must not block for long: the search waits
	// on it. Progress observation never affects results.
	Progress func(done, total int)

	// beforeTrial, when non-nil, runs at the start of each trial, on
	// the trial's goroutine: the fault-injection and probe-counting
	// point of the core tests.
	beforeTrial func(sigma float64, trial int)
}

// NonFinite returns the name and value of the first of C, Delta,
// SigmaInit and MaxSigma that is NaN or infinite, or "" when all four
// are finite. Obfuscate rejects such params: the defaults and the C >= 1
// clamp apply to finite values only, and a non-finite one would
// otherwise size a slice from NaN, stall the doubling phase, or end the
// search without a probe.
func NonFinite(p Params) (string, float64) {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"C", p.C}, {"Delta", p.Delta}, {"SigmaInit", p.SigmaInit}, {"MaxSigma", p.MaxSigma}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f.name, f.v
		}
	}
	return "", 0
}

func (p Params) withDefaults() Params {
	if p.C == 0 {
		p.C = 2
	}
	if p.C < 1 {
		p.C = 1
	}
	if p.Trials <= 0 {
		p.Trials = 5
	}
	if p.Delta <= 0 {
		p.Delta = 1e-8
	}
	if p.SigmaInit <= 0 {
		p.SigmaInit = 1
	}
	if p.MaxSigma <= 0 {
		p.MaxSigma = 1024
	}
	if p.Property == nil {
		p.Property = DegreeProperty{}
	}
	return p
}

// workerCount resolves Workers to an effective positive worker count.
func (p Params) workerCount() int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// resolveSeed fixes the base seed for a run: an explicit Seed wins,
// then the historical default of 1. It is called once per top-level
// entry so that every derived stream — and therefore every result — is
// a pure function of the resolved value.
func (p Params) resolveSeed() int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// trialRng returns the RNG stream owned by one trial of one σ probe.
// Keying the derivation on the σ bits (rather than on probe visit order)
// makes every probe a pure function of (graph, σ, params), whatever ran
// before it (TestProbePurity). Every release is drawn from these
// streams, so a change to the key changes every release.
func trialRng(seed int64, sigma float64, trial int) *rand.Rand {
	return randx.New(randx.Derive(seed, sigmaBits(sigma), uint64(trial)))
}

func sigmaBits(sigma float64) uint64 {
	// Normalize -0 so the derivation cannot split on a distinction the
	// search never makes.
	if sigma == 0 {
		sigma = 0
	}
	return math.Float64bits(sigma)
}
