// Package pbinom computes the Poisson-binomial distribution: the law of
// the sum of independent, non-identical Bernoulli variables.
//
// In the paper, the degree of a vertex v in the uncertain graph G̃ is
// exactly such a sum over the candidate pairs incident to v (Eq. 4).
// Section 4 gives two evaluation routes, both implemented here:
//
//   - Lemma 1: an exact O(L^2) dynamic program over the L incident
//     probabilities;
//   - a CLT/normal approximation Pr(d = w) ~ integral of the Gaussian
//     N(sum p_i, sum p_i(1-p_i)) over [w-1/2, w+1/2], accurate once L is
//     a few tens ("n ~ 30" per the paper).
//
// New allocates each exact law's DP table. Dist.Reset is its reusing
// form, for scans that build one law per vertex: it recomputes the law
// in place, in the table the Dist already holds, and yields the same
// floats as New. Dist.ResetIn computes it in storage the caller
// supplies instead, so a scan that keeps many laws at once can carve
// their tables from one buffer. Dist.Walk evaluates an approximated law
// at ascending points with one erfc per point of a run of adjacent
// points instead of two, equal to Prob float for float.
package pbinom

import (
	"math"
	"slices"

	"uncertaingraph/internal/mathx"
)

// DefaultExactThreshold is the number of Bernoulli terms above which New
// switches from the exact DP to the normal approximation. Thirty is the
// paper's own rule of thumb for CLT accuracy.
const DefaultExactThreshold = 30

// Dist is the distribution of a sum of independent Bernoulli variables,
// represented either exactly or by its normal approximation.
type Dist struct {
	exact []float64 // exact[k] = P(X=k); empty when approximated
	mu    float64
	sigma float64
	n     int // number of Bernoulli terms (support is 0..n)
}

// Exact computes the full distribution by the Lemma 1 dynamic program in
// O(len(probs)^2) time.
func Exact(probs []float64) Dist {
	mu, sigma2 := meanVar(probs)
	return Dist{exact: lemma1(nil, probs), mu: mu, sigma: sqrt(sigma2), n: len(probs)}
}

// lemma1 runs the Lemma 1 dynamic program in dst's storage (grown when
// too short) and returns the table dist[0..len(probs)].
func lemma1(dst, probs []float64) []float64 {
	dist := slices.Grow(dst[:0], len(probs)+1)[:len(probs)+1]
	clear(dist)
	dist[0] = 1
	// After processing l terms, dist[0..l] is the law of the partial sum.
	for l, p := range probs {
		// Walk downward so dist[j-1] is still the previous iteration's
		// value when updating dist[j].
		for j := l + 1; j >= 1; j-- {
			dist[j] = dist[j-1]*p + dist[j]*(1-p)
		}
		dist[0] *= 1 - p
	}
	return dist
}

// Approx builds the normal approximation of the distribution without
// computing it exactly; evaluation of Prob is O(1) per point.
func Approx(probs []float64) Dist {
	mu, sigma2 := meanVar(probs)
	return Dist{mu: mu, sigma: sqrt(sigma2), n: len(probs)}
}

// New picks the representation adaptively: exact DP up to threshold
// terms (0 means DefaultExactThreshold), normal approximation beyond.
func New(probs []float64, threshold int) Dist {
	var d Dist
	d.Reset(probs, threshold)
	return d
}

// Reset makes d equal, float for float, to New(probs, threshold),
// computing an exact law in the DP table d already holds — grown when
// too short, and kept across approximated laws for the next exact one.
// A scan that rebuilds one Dist per vertex therefore allocates only
// while the table grows. Copies of d share its table, so Reset
// overwrites what they read.
func (d *Dist) Reset(probs []float64, threshold int) {
	if threshold <= 0 {
		threshold = DefaultExactThreshold
	}
	mu, sigma2 := meanVar(probs)
	table := d.exact[:0]
	if len(probs) <= threshold {
		table = lemma1(table, probs)
	}
	*d = Dist{exact: table, mu: mu, sigma: sqrt(sigma2), n: len(probs)}
}

// ResetIn is Reset with table's storage in place of the table d holds:
// an exact law is computed in table (grown when too short), and d keeps
// table for its later Resets. Laws reset into disjoint parts of one
// buffer therefore live side by side without an allocation each.
func (d *Dist) ResetIn(table, probs []float64, threshold int) {
	d.exact = table
	d.Reset(probs, threshold)
}

// Prob returns P(X = k).
func (d Dist) Prob(k int) float64 {
	if k < 0 || k > d.n {
		return 0
	}
	if len(d.exact) > 0 {
		return d.exact[k]
	}
	if d.sigma == 0 {
		// Degenerate: all probabilities 0 or 1, X is constant at mu.
		if float64(k) == d.mu {
			return 1
		}
		return 0
	}
	return mathx.NormalIntervalMass(float64(k)-0.5, float64(k)+0.5, d.mu, d.sigma)
}

// Mean returns E[X] = sum p_i.
func (d Dist) Mean() float64 { return d.mu }

// Sigma returns the standard deviation sqrt(sum p_i (1-p_i)).
func (d Dist) Sigma() float64 { return d.sigma }

// NumTerms returns the number of Bernoulli terms; the support of X is
// {0, ..., NumTerms()}.
func (d Dist) NumTerms() int { return d.n }

// IsExact reports whether the distribution holds the exact DP table.
func (d Dist) IsExact() bool { return len(d.exact) > 0 }

// Walk evaluates one law at a sequence of points, each equal to
// d.Prob(k) float for float. An approximated law with σ > 0 gives
// P(X = k) = ½(erfc(a_k) − erfc(b_k)), where a_k and b_k are
// mathx.NormalErfc at k−½ and k+½; b_k and a_{k+1} are the same float,
// so a point right after its predecessor reuses that erfc and a
// repeated point reuses both. Exact and degenerate (σ = 0) laws, and
// points outside the support, are read through Prob. Any order of
// points is correct; ascending runs are what save the work.
type Walk struct {
	d      *Dist
	k      int     // the last approximated point, -2 before the first
	lo, hi float64 // mathx.NormalErfc at k-1/2 and k+1/2
}

// Walk starts a walk over d, which must not change while it is used.
func (d *Dist) Walk() Walk { return Walk{d: d, k: -2} }

// Prob returns P(X = k), bit-identical to the law's Prob(k).
func (w *Walk) Prob(k int) float64 {
	d := w.d
	if len(d.exact) > 0 || d.sigma == 0 || k < 0 || k > d.n {
		return d.Prob(k)
	}
	switch k {
	case w.k:
	case w.k + 1:
		w.lo, w.hi = w.hi, mathx.NormalErfc(float64(k)+0.5, d.mu, d.sigma)
	default:
		w.lo = mathx.NormalErfc(float64(k)-0.5, d.mu, d.sigma)
		w.hi = mathx.NormalErfc(float64(k)+0.5, d.mu, d.sigma)
	}
	w.k = k
	return 0.5 * (w.lo - w.hi)
}

func meanVar(probs []float64) (mu, sigma2 float64) {
	for _, p := range probs {
		mu += p
		sigma2 += p * (1 - p)
	}
	return mu, sigma2
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
