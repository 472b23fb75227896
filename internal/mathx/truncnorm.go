package mathx

import (
	"math"
	"math/rand"
)

// TruncNormal is the [0,1]-truncated half-normal distribution R_sigma of
// paper Eq. 6: the density of |N(0, sigma^2)| restricted to [0,1] and
// renormalized. Small sigma concentrates mass near 0 (little injected
// uncertainty); large sigma spreads mass towards 1.
type TruncNormal struct {
	Sigma float64
	// mass is the normalizing constant: P(0 <= |N(0,sigma)| <= 1)
	// relative to the positive half, i.e. erf(1/(sigma*sqrt2)).
	mass float64
}

// NewTruncNormal returns the R_sigma distribution for the given standard
// deviation. sigma must be positive; a sigma of zero degenerates to the
// point mass at 0 and is handled by Sample.
func NewTruncNormal(sigma float64) TruncNormal {
	if sigma <= 0 {
		return TruncNormal{Sigma: 0, mass: 1}
	}
	return TruncNormal{Sigma: sigma, mass: math.Erf(1 / (sigma * math.Sqrt2))}
}

// PDF returns the density of R_sigma at r.
func (t TruncNormal) PDF(r float64) float64 {
	if r < 0 || r > 1 {
		return 0
	}
	if t.Sigma == 0 {
		if r == 0 {
			return math.Inf(1)
		}
		return 0
	}
	// Density of the positive half-normal is 2*phi(r/sigma)/sigma; the
	// truncation to [0,1] divides by mass. Equivalently this is
	// Phi_{0,sigma}(r) / integral_0^1 Phi_{0,sigma}, as in the paper.
	return 2 * NormalPDF(r, 0, t.Sigma) / t.mass
}

// CDF returns P(R <= r) for R ~ R_sigma.
func (t TruncNormal) CDF(r float64) float64 {
	switch {
	case r < 0:
		return 0
	case r >= 1:
		return 1
	case t.Sigma == 0:
		return 1
	}
	return math.Erf(r/(t.Sigma*math.Sqrt2)) / t.mass
}

// Mean returns E[R] for R ~ R_sigma (closed form for the truncated
// half-normal).
func (t TruncNormal) Mean() float64 {
	if t.Sigma == 0 {
		return 0
	}
	s := t.Sigma
	// E[R] = (2*phi(0) - 2*phi(1/s)) * s^2 / mass where phi is the
	// standard normal pdf scaled appropriately; derived from
	// integral r*2/(s)*phi(r/s) dr on [0,1].
	return 2 * s * InvSqrt2Pi * (1 - math.Exp(-1/(2*s*s))) / t.mass
}

// Sample draws one perturbation value r in [0,1]; it is
// SampleTruncNormal(t.Sigma, rng).
func (t TruncNormal) Sample(rng *rand.Rand) float64 {
	return SampleTruncNormal(t.Sigma, rng)
}

// SampleTruncNormal draws one value from R_sigma: the same RNG calls and
// the same value as NewTruncNormal(sigma).Sample(rng), without building
// the distribution. A sigma <= 0 yields the point mass at 0.
//
// For sigma <= 2 rejection against the half-normal accepts with
// probability erf(1/(sigma*sqrt2)) >= erf(1/(2*sqrt2)) ~ 0.38, so
// rejection is cheap and needs no normalizer; for larger sigma it falls
// back to inverse-CDF sampling, the one branch that computes the
// normalizer erf(1/(sigma*sqrt2)), to keep the cost bounded. Callers
// drawing once per candidate pair at a per-pair sigma (Algorithm 2)
// thus pay no math.Erf per draw below sigma = 2.
func SampleTruncNormal(sigma float64, rng *rand.Rand) float64 {
	if sigma <= 0 {
		return 0
	}
	if sigma <= 2 {
		for {
			r := math.Abs(rng.NormFloat64() * sigma)
			if r <= 1 {
				return r
			}
		}
	}
	// Inverse CDF: r = sigma*sqrt2 * erfinv(u * mass).
	mass := math.Erf(1 / (sigma * math.Sqrt2))
	u := rng.Float64()
	return sigma * math.Sqrt2 * erfinv(u*mass)
}

// erfinv computes the inverse error function on (-1, 1) using the
// rational approximation of Giles (2012) refined by one Newton step,
// accurate to ~1e-12 over the needed range.
func erfinv(x float64) float64 {
	if x <= -1 || x >= 1 {
		if x == 1 {
			return math.Inf(1)
		}
		if x == -1 {
			return math.Inf(-1)
		}
		return math.NaN()
	}
	w := -math.Log((1 - x) * (1 + x))
	var p float64
	if w < 5 {
		w -= 2.5
		p = 2.81022636e-08
		p = 3.43273939e-07 + p*w
		p = -3.5233877e-06 + p*w
		p = -4.39150654e-06 + p*w
		p = 0.00021858087 + p*w
		p = -0.00125372503 + p*w
		p = -0.00417768164 + p*w
		p = 0.246640727 + p*w
		p = 1.50140941 + p*w
	} else {
		w = math.Sqrt(w) - 3
		p = -0.000200214257
		p = 0.000100950558 + p*w
		p = 0.00134934322 + p*w
		p = -0.00367342844 + p*w
		p = 0.00573950773 + p*w
		p = -0.0076224613 + p*w
		p = 0.00943887047 + p*w
		p = 1.00167406 + p*w
		p = 2.83297682 + p*w
	}
	y := p * x
	// One Newton iteration: f(y) = erf(y) - x.
	y -= (math.Erf(y) - x) / (2 * InvSqrt2Pi * math.Sqrt2 * math.Exp(-y*y))
	return y
}
