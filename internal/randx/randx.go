// Package randx provides the randomness substrate: reproducible seeded
// RNG construction, O(1) weighted sampling via Walker's alias method,
// geometric skipping over vertex pairs (EachPair), and Source, math/rand's generator as a concrete type for the
// per-world samplers, with a block coin kernel (Source.Coins) that
// draws a world's coins against per-pair integer thresholds
// (CoinThreshold) exactly as per-pair Float64 calls would. On amd64
// CPUs with AVX2 (probed once at start-up; no flag selects it), Seed
// builds four register words and Coins draws four coins per
// instruction step in assembly; the Go code is the portable path and
// the kernels' test reference, and both give the same values.
//
// The obfuscation algorithm (paper Alg. 2) repeatedly draws vertices from
// the uniqueness-proportional distribution Q while growing the candidate
// set E_C; with |E_C| = c|E| draws per trial and t trials per binary
// search step, sampling must be constant time, hence the alias table.
package randx

import (
	"math"
	"math/rand"
)

// New returns a reproducible *rand.Rand for the given seed.
//
// All randomized components of this repository accept a *rand.Rand rather
// than using the global source, so experiments are replayable from a
// single seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA
// 2014): a bijective avalanche mix whose output stream passes BigCrush.
// It is the standard tool for deriving independent seeds from one base
// seed, which is how the parallel trial engine gives every trial its own
// reproducible stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive maps (seed, tags...) to a new seed, deterministically and with
// good avalanche behavior: distinct tag sequences yield statistically
// independent seeds. The obfuscation core derives one stream per
// (σ probe, trial index) pair from a single base seed, so results do not
// depend on how many trials run concurrently or in what order.
func Derive(seed int64, tags ...uint64) int64 {
	x := splitmix64(uint64(seed))
	for _, t := range tags {
		x = splitmix64(x ^ splitmix64(t))
	}
	return int64(x &^ (1 << 63)) // non-negative, matching rand.Seed conventions
}

// FillWorldSeeds fills seeds with one independent seed per world drawn
// sequentially from master — the pre-derivation discipline shared by
// the sampling and query engines: world i's RNG stream depends only on
// the master seed and i, never on the worker count or the schedule, so
// Monte-Carlo results are bit-identical for every Workers value.
func FillWorldSeeds(seeds []int64, master *rand.Rand) {
	for i := range seeds {
		seeds[i] = master.Int63()
	}
}

// EachPair calls fn(u, v) for each pair u < v of n vertices
// independently with probability p, in lexicographic order. It skips a
// Geometric(p) number of pairs between successive calls
// (Batagelj–Brandes), so it draws once per call, plus once, rather than
// once per pair. p >= 1 calls every pair without drawing; p <= 0 or
// NaN calls none.
func EachPair(rng *rand.Rand, n int, p float64, fn func(u, v int)) {
	if !(p > 0) {
		return
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				fn(u, v)
			}
		}
		return
	}
	lnq := math.Log1p(-p)
	total := n * (n - 1) / 2
	for idx := -1; ; {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		// The skip is compared with the pairs left before it becomes
		// an int: at tiny p it can exceed any int.
		skip := math.Log(u) / lnq
		if skip >= float64(total-idx-1) {
			return
		}
		idx += 1 + int(skip)
		fn(pairFromIndex(idx, n))
	}
}

// pairFromIndex maps a lexicographic index over the pairs
// (0,1), (0,2), ..., (0,n-1), (1,2), ... to the pair (u, v), u < v.
func pairFromIndex(idx, n int) (int, int) {
	u := 0
	rowLen := n - 1
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + idx
}

// Alias is a Walker alias table supporting O(1) draws from a fixed
// discrete distribution over {0, ..., n-1}.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalized. At least one weight must be positive,
// otherwise NewAlias returns nil.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return nil
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; mean 1 by construction.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Whatever remains (numerical leftovers) gets probability 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Draw samples an index according to the table's distribution.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// Shuffle permutes the ints in place.
func Shuffle(rng *rand.Rand, xs []int) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
