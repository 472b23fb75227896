package mathx

import "math"

// HoeffdingSampleSize returns the minimal number of sampled possible
// worlds r that guarantees Pr(|E(S) - mean| >= eps) <= delta for a
// statistic bounded in [a, b] (paper Corollary 1):
//
//	r >= (1/2) * ((b-a)/eps)^2 * ln(2/delta).
//
// The result saturates at math.MaxInt: for eps small enough the float
// bound overflows to +Inf, and converting a float beyond the int range
// is undefined in the Go spec (on this platform it produced the
// negative minint, which then flowed into world-count defaults).
func HoeffdingSampleSize(a, b, eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || b <= a {
		return 0
	}
	r := math.Ceil(0.5 * math.Pow((b-a)/eps, 2) * math.Log(2/delta))
	// float64(math.MaxInt) is exactly 2^63; any float strictly below it
	// converts safely. The negated comparison also routes NaN (possible
	// only from Inf/Inf argument combinations) to the saturated value
	// rather than through another undefined conversion.
	if !(r < float64(math.MaxInt)) {
		return math.MaxInt
	}
	return int(r)
}

// HoeffdingFailureBound returns the right-hand side of paper Lemma 2:
// the probability that the sample mean of r draws of a statistic bounded
// in [a, b] deviates from its expectation by at least eps,
//
//	2 * exp(-2*eps^2*r / (b-a)^2).
func HoeffdingFailureBound(a, b, eps float64, r int) float64 {
	if b <= a || r <= 0 {
		return 1
	}
	return 2 * math.Exp(-2*eps*eps*float64(r)/((b-a)*(b-a)))
}

// MeanStd returns the sample mean and the sample standard deviation
// (Bessel-corrected) of xs. For fewer than two values the standard
// deviation is 0.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// RelativeSEM returns the relative sample standard error of the mean used
// in paper Table 5: the sample standard deviation divided by sqrt(len)
// and normalized by the absolute sample mean.
//
// A zero mean with nonzero spread returns +Inf — the relative error of
// a zero-mean estimate is unbounded, and returning 0 here would declare
// the statistic perfectly converged (adaptive stopping would quit after
// one block on sparse worlds where e.g. S_CC samples are all 0 except
// a few). Only a degenerate sample — zero mean and zero spread, or no
// samples at all — reports 0.
func RelativeSEM(xs []float64) float64 {
	mean, std := MeanStd(xs)
	if mean == 0 {
		if std == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return std / math.Sqrt(float64(len(xs))) / math.Abs(mean)
}

// RelativeSEMFromMoments is RelativeSEM computed from running moments
// instead of a sample slice: sum and sumsq are Σx and Σx² over n
// samples. It shares RelativeSEM's semantics exactly — +Inf for a
// zero-mean sample with spread, 0 only for a degenerate one — so
// engines that accumulate integer counts (the query batch) apply the
// same convergence rule as engines that keep per-world sample arrays.
func RelativeSEMFromMoments(sum, sumsq float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	mean := sum / float64(n)
	var std float64
	if n >= 2 {
		// The ss difference can round slightly negative for constant
		// samples; clamp rather than emit NaN from Sqrt.
		if ss := sumsq - float64(n)*mean*mean; ss > 0 {
			std = math.Sqrt(ss / float64(n-1))
		}
	}
	if mean == 0 {
		if std == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return std / math.Sqrt(float64(n)) / math.Abs(mean)
}

// RelAbsErr returns |est-real| / |real|, the per-statistic relative error
// of paper Table 4; if real is 0 it returns |est|.
func RelAbsErr(est, real float64) float64 {
	if real == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-real) / math.Abs(real)
}
