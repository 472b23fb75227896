package pbinom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce enumerates all 2^L outcomes; usable for L <= ~20.
func bruteForce(probs []float64) []float64 {
	L := len(probs)
	dist := make([]float64, L+1)
	for mask := 0; mask < 1<<L; mask++ {
		p := 1.0
		ones := 0
		for i := 0; i < L; i++ {
			if mask&(1<<i) != 0 {
				p *= probs[i]
				ones++
			} else {
				p *= 1 - probs[i]
			}
		}
		dist[ones] += p
	}
	return dist
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		L := 1 + rng.Intn(12)
		probs := make([]float64, L)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		want := bruteForce(probs)
		d := Exact(probs)
		for k := 0; k <= L; k++ {
			if math.Abs(d.Prob(k)-want[k]) > 1e-12 {
				t.Fatalf("L=%d k=%d: exact %v, brute force %v", L, k, d.Prob(k), want[k])
			}
		}
	}
}

func TestExactMatchesBinomialClosedForm(t *testing.T) {
	// Equal probabilities reduce to Binomial(L, p).
	L, p := 25, 0.37
	probs := make([]float64, L)
	for i := range probs {
		probs[i] = p
	}
	d := Exact(probs)
	for k := 0; k <= L; k++ {
		logC := lgamma(L+1) - lgamma(k+1) - lgamma(L-k+1)
		want := math.Exp(logC + float64(k)*math.Log(p) + float64(L-k)*math.Log(1-p))
		if math.Abs(d.Prob(k)-want) > 1e-12 {
			t.Fatalf("k=%d: %v vs binomial %v", k, d.Prob(k), want)
		}
	}
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

func TestExactSumsToOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		probs := make([]float64, 0, len(raw))
		for _, p := range raw {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			probs = append(probs, math.Abs(math.Mod(p, 1)))
			if len(probs) == 60 {
				break
			}
		}
		d := Exact(probs)
		var sum float64
		for k := 0; k <= len(probs); k++ {
			if d.Prob(k) < 0 {
				return false
			}
			sum += d.Prob(k)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPaperExample1(t *testing.T) {
	// Vertex v1 of Figure 1(b) has incident probabilities 0.7, 0.9, 0.8.
	// Table 1 row: X_v1 = (0.006, 0.092, 0.398, 0.504).
	d := Exact([]float64{0.7, 0.9, 0.8})
	want := []float64{0.006, 0.092, 0.398, 0.504}
	for k, w := range want {
		if math.Abs(d.Prob(k)-w) > 1e-12 {
			t.Errorf("X_v1(%d) = %v, want %v", k, d.Prob(k), w)
		}
	}
	// Vertex v4: incident probabilities 0.8, 0.1, 0 -> (0.18, 0.74, 0.08, 0).
	d4 := Exact([]float64{0.8, 0.1, 0})
	want4 := []float64{0.18, 0.74, 0.08, 0}
	for k, w := range want4 {
		if math.Abs(d4.Prob(k)-w) > 1e-12 {
			t.Errorf("X_v4(%d) = %v, want %v", k, d4.Prob(k), w)
		}
	}
}

func TestMeanAndSigma(t *testing.T) {
	probs := []float64{0.2, 0.5, 0.9}
	d := Exact(probs)
	if got, want := d.Mean(), 1.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	wantVar := 0.2*0.8 + 0.5*0.5 + 0.9*0.1
	if got := d.Sigma(); math.Abs(got-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Sigma = %v, want %v", got, math.Sqrt(wantVar))
	}
	// Mean via the distribution must agree.
	var mean float64
	for k := 0; k <= 3; k++ {
		mean += float64(k) * d.Prob(k)
	}
	if math.Abs(mean-1.6) > 1e-12 {
		t.Errorf("distribution mean = %v", mean)
	}
}

func TestApproxCloseToExactForLargeL(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	L := 300
	probs := make([]float64, L)
	for i := range probs {
		probs[i] = 0.05 + 0.9*rng.Float64()
	}
	exact := Exact(probs)
	approx := Approx(probs)
	// Total variation distance between exact and CLT approximations
	// should be small at L=300.
	var tv float64
	for k := 0; k <= L; k++ {
		tv += math.Abs(exact.Prob(k) - approx.Prob(k))
	}
	tv /= 2
	if tv > 0.01 {
		t.Errorf("total variation %v too large for L=%d", tv, L)
	}
}

func TestNewAdaptive(t *testing.T) {
	small := make([]float64, 10)
	large := make([]float64, 100)
	for i := range small {
		small[i] = 0.5
	}
	for i := range large {
		large[i] = 0.5
	}
	if !New(small, 0).IsExact() {
		t.Error("10 terms should use exact DP")
	}
	if New(large, 0).IsExact() {
		t.Error("100 terms should use approximation")
	}
	if !New(large, 200).IsExact() {
		t.Error("explicit threshold should force exact")
	}
}

func TestDegenerateCases(t *testing.T) {
	// No terms: point mass at 0.
	d := Exact(nil)
	if d.Prob(0) != 1 || d.Prob(1) != 0 {
		t.Error("empty distribution should be point mass at 0")
	}
	// All certain: point mass at count of ones, both representations.
	probs := []float64{1, 1, 0, 1}
	for _, d := range []Dist{Exact(probs), Approx(probs)} {
		if math.Abs(d.Prob(3)-1) > 1e-12 {
			t.Errorf("P(3) = %v, want 1 (exact=%v)", d.Prob(3), d.IsExact())
		}
		if d.Prob(2) != 0 || d.Prob(4) != 0 {
			t.Errorf("mass leaked off the point (exact=%v)", d.IsExact())
		}
	}
	// Out of range.
	if d.Prob(-1) != 0 || d.Prob(10) != 0 {
		t.Error("out-of-range k should have zero mass")
	}
}

func BenchmarkExactDP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	probs := make([]float64, 200)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(probs)
	}
}

// sameDist reports whether two laws agree float for float on every
// observable: term count, representation, moments and every point mass
// (including just outside the support).
func sameDist(a, b Dist) bool {
	if a.NumTerms() != b.NumTerms() || a.IsExact() != b.IsExact() ||
		math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) ||
		math.Float64bits(a.Sigma()) != math.Float64bits(b.Sigma()) {
		return false
	}
	for k := -2; k <= a.NumTerms()+2; k++ {
		if math.Float64bits(a.Prob(k)) != math.Float64bits(b.Prob(k)) {
			return false
		}
	}
	return true
}

// TestResetMatchesNew drives one reused Dist through exact and CLT
// sizes that grow, shrink and regrow: every Reset must equal a fresh
// New float for float, so a stale DP table never leaks into a law.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const threshold = 8
	var d Dist
	for _, size := range []int{3, 8, 2, 20, 5, 0, 40, 8, 1, 9, 7, 33, 6} {
		probs := make([]float64, size)
		for i := range probs {
			switch i % 5 {
			case 0:
				probs[i] = 1
			case 3:
				probs[i] = 0
			default:
				probs[i] = rng.Float64()
			}
		}
		d.Reset(probs, threshold)
		if want := New(probs, threshold); !sameDist(d, want) {
			t.Fatalf("size %d: reused Dist differs from New", size)
		}
		if d.IsExact() != (size <= threshold) {
			t.Fatalf("size %d: IsExact = %v with threshold %d", size, d.IsExact(), threshold)
		}
	}
	// Threshold 0 selects the default, as for New.
	probs := make([]float64, DefaultExactThreshold)
	for i := range probs {
		probs[i] = 0.25
	}
	d.Reset(probs, 0)
	if !sameDist(d, New(probs, 0)) || !d.IsExact() {
		t.Fatal("threshold 0 must select DefaultExactThreshold")
	}
	// Once the table has grown, Reset allocates nothing.
	if allocs := testing.AllocsPerRun(20, func() { d.Reset(probs[:7], threshold) }); allocs != 0 {
		t.Errorf("warm Reset allocates %v times, want 0", allocs)
	}
}

// TestResetInUsesCallerTable pins ResetIn: it equals New float for
// float, computes an exact law in the caller's storage, and allocates
// nothing when that storage is long enough.
func TestResetInUsesCallerTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const threshold = 8
	buf := make([]float64, 64)
	var d Dist
	for _, size := range []int{0, 1, 5, 8, 9, 30} {
		probs := make([]float64, size)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		table := buf[7 : 7+size+1 : 7+size+1]
		d.ResetIn(table, probs, threshold)
		if !sameDist(d, New(probs, threshold)) {
			t.Fatalf("size %d: ResetIn differs from New", size)
		}
		if d.IsExact() && &d.exact[0] != &buf[7] {
			t.Fatalf("size %d: exact law not computed in the caller's table", size)
		}
	}
	probs := []float64{0.2, 0.9, 0.4}
	if allocs := testing.AllocsPerRun(20, func() { d.ResetIn(buf[:0], probs, threshold) }); allocs != 0 {
		t.Errorf("ResetIn into a long enough table allocates %v times, want 0", allocs)
	}
}

// TestWalkMatchesProb pins the shared-endpoint walk: along ascending
// point lists with runs, gaps and repeats, and also out of order and
// off the support, every point equals Prob bit for bit, for σ from
// 1e-3 to 50 and μ at 0, at the middle of the support and at its top.
func TestWalkMatchesProb(t *testing.T) {
	const n = 80
	lists := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{0, 2, 4, 5, 6, 9, 10, 11, 30, 31, 32, 33, 79, 80},
		{3, 3, 4, 4, 4, 5, 7, 7, 8, 40, 40, 41},
		{-3, -1, 0, 1, 1, 2, 78, 79, 80, 81, 90},
		{10, 9, 11, 12, 5, 6, 6, 7},
	}
	for _, sigma := range []float64{1e-3, 0.01, 0.3, 1, 2.5, 7, 20, 50} {
		for _, mu := range []float64{0, n / 2, n, 13.37} {
			d := Dist{mu: mu, sigma: sigma, n: n}
			for li, list := range lists {
				w := d.Walk()
				for _, k := range list {
					got, want := w.Prob(k), d.Prob(k)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("σ=%v μ=%v list %d k=%d: walk %v, Prob %v", sigma, mu, li, k, got, want)
					}
				}
			}
		}
	}
	// Exact and degenerate laws read through Prob.
	for _, d := range []Dist{Exact([]float64{0.3, 0.6, 0.9}), Approx([]float64{1, 0, 1})} {
		w := d.Walk()
		for _, k := range []int{-1, 0, 1, 2, 2, 3, 4} {
			if got, want := w.Prob(k), d.Prob(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exact=%v k=%d: walk %v, Prob %v", d.IsExact(), k, got, want)
			}
		}
	}
}
