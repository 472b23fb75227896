// Package mathx provides the numerical substrate used throughout the
// obfuscation system: Gaussian densities and CDFs, the [0,1]-truncated
// normal distribution R_sigma used to draw edge perturbations (paper
// Eq. 6), Shannon entropy, log-log regression for power-law fitting,
// Hoeffding sample-size bounds, and jackknife error estimation.
//
// R_sigma has two forms: the TruncNormal distribution (PDF, CDF, Mean,
// Sample) and the sampler SampleTruncNormal, a function of sigma that
// TruncNormal.Sample delegates to. The sampler computes the
// normalizer erf(1/(sigma*sqrt2)) only on its sigma > 2 inverse-CDF
// branch, so a caller drawing one perturbation per candidate pair at a
// per-pair sigma pays no math.Erf for the usual small sigma.
package mathx

import "math"

// InvSqrt2Pi is 1/sqrt(2*pi), the normalizing constant of the standard
// normal density.
const InvSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659258296

// NormalPDF returns the density of the normal distribution with mean mu
// and standard deviation sigma at x (paper Eq. 5). sigma must be positive.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return InvSqrt2Pi / sigma * math.Exp(-0.5*z*z)
}

// StdNormalPDF returns the standard normal density at x.
func StdNormalPDF(x float64) float64 {
	return InvSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	return StdNormalCDF((x - mu) / sigma)
}

// StdNormalCDF returns the standard normal cumulative distribution
// function at x, computed via the error function.
func StdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalIntervalMass returns P(lo <= X <= hi) for X ~ N(mu, sigma^2).
// It is used for the CLT approximation of the Poisson-binomial degree
// distribution: Pr(d = w) ~ NormalIntervalMass(w-1/2, w+1/2, mu, sigma).
func NormalIntervalMass(lo, hi, mu, sigma float64) float64 {
	if hi < lo {
		return 0
	}
	// Difference of complementary error functions is more stable in the
	// tails than a difference of CDFs near 1.
	a := (lo - mu) / (sigma * math.Sqrt2)
	b := (hi - mu) / (sigma * math.Sqrt2)
	return 0.5 * (math.Erfc(a) - math.Erfc(b))
}
