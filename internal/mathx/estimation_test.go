package mathx

import (
	"math"
	"testing"
)

func TestHoeffdingSampleSize(t *testing.T) {
	// Clustering coefficient case from Section 6.4: a=0, b=1.
	// r = (1/(2*eps^2)) * ln(2/delta).
	got := HoeffdingSampleSize(0, 1, 0.05, 0.05)
	want := int(math.Ceil(0.5 / (0.05 * 0.05) * math.Log(2/0.05)))
	if got != want {
		t.Errorf("HoeffdingSampleSize = %d, want %d", got, want)
	}
	if HoeffdingSampleSize(0, 1, 0, 0.1) != 0 {
		t.Error("eps=0 should yield 0")
	}
	if HoeffdingSampleSize(1, 0, 0.1, 0.1) != 0 {
		t.Error("b<=a should yield 0")
	}
}

func TestHoeffdingSampleSizeTinyEpsOverflowRegression(t *testing.T) {
	// Regression: for eps small enough the float bound is +Inf, and
	// int(math.Ceil(+Inf)) is a spec-undefined conversion that produced
	// -9223372036854775808 on this platform — a negative world count
	// that flowed into DefaultWorlds-style callers. The size must
	// saturate at math.MaxInt instead.
	got := HoeffdingSampleSize(0, 1, 1e-200, 0.5)
	if got <= 0 {
		t.Fatalf("HoeffdingSampleSize(0,1,1e-200,0.5) = %d, want a positive (saturated) count", got)
	}
	if got != math.MaxInt {
		t.Errorf("HoeffdingSampleSize(0,1,1e-200,0.5) = %d, want math.MaxInt", got)
	}
	// A merely-huge finite bound must also stay positive.
	if got := HoeffdingSampleSize(0, 1, 1e-12, 0.05); got <= 0 {
		t.Errorf("HoeffdingSampleSize(0,1,1e-12,0.05) = %d, want > 0", got)
	}
}

func TestHoeffdingRoundTrip(t *testing.T) {
	// Using the computed r, the failure bound must be at most delta.
	a, b, eps, delta := 0.0, 5.0, 0.2, 0.01
	r := HoeffdingSampleSize(a, b, eps, delta)
	if bound := HoeffdingFailureBound(a, b, eps, r); bound > delta+1e-12 {
		t.Errorf("bound %v exceeds delta %v at r=%d", bound, delta, r)
	}
	if bound := HoeffdingFailureBound(a, b, eps, r-10); bound <= delta {
		t.Errorf("bound at r-10 should exceed delta, got %v", bound)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(mean, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", mean)
	}
	// Sample (Bessel) std of this classic dataset: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); !almostEq(std, want, 1e-12) {
		t.Errorf("std = %v, want %v", std, want)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty input should give 0,0")
	}
	if m, s := MeanStd([]float64{3}); m != 3 || s != 0 {
		t.Error("single value should give value,0")
	}
}

func TestRelativeSEM(t *testing.T) {
	xs := []float64{10, 12, 8, 11, 9}
	mean, std := MeanStd(xs)
	want := std / math.Sqrt(5) / mean
	if got := RelativeSEM(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("RelativeSEM = %v, want %v", got, want)
	}
	if RelativeSEM([]float64{0, 0}) != 0 {
		t.Error("zero-mean zero-spread input should yield 0")
	}
}

func TestRelativeSEMZeroMeanNonzeroSpreadRegression(t *testing.T) {
	// Regression: a zero mean with nonzero spread used to return 0 —
	// "perfectly converged" — which would make adaptive stopping quit
	// after one block on any statistic whose samples straddle zero.
	// The relative error of a zero-mean estimate is unbounded: +Inf.
	if got := RelativeSEM([]float64{1, -1}); !math.IsInf(got, 1) {
		t.Fatalf("RelativeSEM({1,-1}) = %v, want +Inf", got)
	}
	if got := RelativeSEM([]float64{0, 3, -3, 0}); !math.IsInf(got, 1) {
		t.Errorf("RelativeSEM({0,3,-3,0}) = %v, want +Inf", got)
	}
	// Degenerate cases keep returning 0.
	if got := RelativeSEM(nil); got != 0 {
		t.Errorf("RelativeSEM(nil) = %v, want 0", got)
	}
	if got := RelativeSEM([]float64{0}); got != 0 {
		t.Errorf("RelativeSEM({0}) = %v, want 0", got)
	}
}

func TestRelativeSEMFromMomentsAgrees(t *testing.T) {
	for _, xs := range [][]float64{
		{10, 12, 8, 11, 9},
		{1, 1, 1, 1},
		{0.25},
		{0, 1, 0, 1, 1},
	} {
		var sum, sumsq float64
		for _, x := range xs {
			sum += x
			sumsq += x * x
		}
		want := RelativeSEM(xs)
		if got := RelativeSEMFromMoments(sum, sumsq, len(xs)); !almostEq(got, want, 1e-9) {
			t.Errorf("moments form on %v = %v, want %v", xs, got, want)
		}
	}
	// The zero-mean semantics must match the fixed RelativeSEM: spread
	// without mean is +Inf, degenerate samples are 0.
	if got := RelativeSEMFromMoments(0, 2, 2); !math.IsInf(got, 1) {
		t.Errorf("moments form zero-mean with spread = %v, want +Inf", got)
	}
	if got := RelativeSEMFromMoments(0, 0, 3); got != 0 {
		t.Errorf("moments form degenerate = %v, want 0", got)
	}
	if got := RelativeSEMFromMoments(0, 0, 0); got != 0 {
		t.Errorf("moments form empty = %v, want 0", got)
	}
}

func TestRelAbsErr(t *testing.T) {
	if got := RelAbsErr(110, 100); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelAbsErr(110,100) = %v, want 0.1", got)
	}
	if got := RelAbsErr(-3, 0); !almostEq(got, 3, 1e-12) {
		t.Errorf("RelAbsErr(-3,0) = %v, want 3", got)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) || !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1 R2 1", fit)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("expected error for constant x")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestPowerLawExponentRecovery(t *testing.T) {
	// Exact power law: freq[d] = d^-2.5 for d in [5, 200].
	freq := make([]float64, 201)
	for d := 1; d <= 200; d++ {
		freq[d] = math.Pow(float64(d), -2.5)
	}
	gamma, err := PowerLawExponent(freq, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(gamma, -2.5, 1e-9) {
		t.Errorf("recovered exponent %v, want -2.5", gamma)
	}
	// Cutoff must matter: contaminate low degrees heavily.
	freq[1], freq[2] = 100, 100
	gammaLow, err := PowerLawExponent(freq, 1)
	if err != nil {
		t.Fatal(err)
	}
	gammaHigh, err := PowerLawExponent(freq, 5)
	if err != nil {
		t.Fatal(err)
	}
	if almostEq(gammaLow, gammaHigh, 1e-6) {
		t.Error("cutoff had no effect on contaminated data")
	}
	if !almostEq(gammaHigh, -2.5, 1e-9) {
		t.Errorf("cutoff fit %v, want -2.5", gammaHigh)
	}
}

func TestPowerLawExponentErrors(t *testing.T) {
	if _, err := PowerLawExponent([]float64{0, 1}, 1); err == nil {
		t.Error("expected error with a single usable point")
	}
}
