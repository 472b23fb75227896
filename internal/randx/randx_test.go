package randx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReproducible(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(100)
	same := true
	for i := 0; i < 10; i++ {
		if New(99).Int63() != c.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestFillWorldSeedsMatchesDirectDraws(t *testing.T) {
	// The helper must reproduce exactly the sequential Int63 stream the
	// sampling pipeline has always pre-derived (its pinned regressions
	// depend on it), and refilling from a reseeded master must replay it.
	seeds := make([]int64, 32)
	FillWorldSeeds(seeds, New(7))
	direct := New(7)
	for i, s := range seeds {
		if want := direct.Int63(); s != want {
			t.Fatalf("seed[%d] = %d, want direct draw %d", i, s, want)
		}
	}
	master := New(0)
	master.Seed(7)
	again := make([]int64, 32)
	FillWorldSeeds(again, master)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatalf("reseeded refill diverged at %d", i)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	rng := New(7)
	counts := make([]int, len(weights))
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d: freq %v, want %v", i, got, want)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 2, 0})
	rng := New(13)
	for i := 0; i < 100000; i++ {
		k := a.Draw(rng)
		if k != 1 && k != 3 {
			t.Fatalf("drew zero-weight outcome %d", k)
		}
	}
}

func TestAliasDegenerate(t *testing.T) {
	if NewAlias(nil) != nil {
		t.Error("empty weights should return nil")
	}
	if NewAlias([]float64{0, 0}) != nil {
		t.Error("all-zero weights should return nil")
	}
	a := NewAlias([]float64{5})
	rng := New(1)
	if a.Draw(rng) != 0 {
		t.Error("single outcome must always be drawn")
	}
	if a.Len() != 1 {
		t.Error("Len mismatch")
	}
}

func TestAliasNegativeTreatedAsZero(t *testing.T) {
	a := NewAlias([]float64{-3, 1})
	rng := New(2)
	for i := 0; i < 10000; i++ {
		if a.Draw(rng) != 1 {
			t.Fatal("negative weight drawn")
		}
	}
}

// Property: alias table construction never panics and always draws valid
// indices, for arbitrary non-negative weight vectors.
func TestAliasProperty(t *testing.T) {
	f := func(raw []float64) bool {
		weights := make([]float64, len(raw))
		anyPos := false
		for i, w := range raw {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			weights[i] = math.Mod(math.Abs(w), 1e9)
			if weights[i] > 0 {
				anyPos = true
			}
		}
		a := NewAlias(weights)
		if !anyPos {
			return a == nil
		}
		if a == nil {
			return false
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			k := a.Draw(rng)
			if k < 0 || k >= len(weights) {
				return false
			}
			if weights[k] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAliasSkewedWeights(t *testing.T) {
	// Heavily skewed weights, as produced by uniqueness scores on
	// power-law degree distributions.
	weights := []float64{1e-9, 1e-3, 1, 1e3, 1e6}
	a := NewAlias(weights)
	rng := New(21)
	counts := make([]int, len(weights))
	const n = 1000000
	for i := 0; i < n; i++ {
		counts[a.Draw(rng)]++
	}
	// The largest weight holds ~99.9% of the mass.
	if frac := float64(counts[4]) / n; frac < 0.997 {
		t.Errorf("dominant weight drawn with freq %v, want ~0.999", frac)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	seen := map[int]bool{}
	Shuffle(New(3), xs)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 7 {
		t.Error("shuffle lost elements")
	}
}

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	a := Derive(7, 1, 2)
	if a != Derive(7, 1, 2) {
		t.Fatal("Derive is not deterministic")
	}
	if a < 0 {
		t.Errorf("Derive(7,1,2) = %d, want non-negative", a)
	}
	// Distinct tag paths must land on distinct seeds: this is what gives
	// every (sigma probe, trial) pair an independent stream.
	seen := map[int64]bool{a: true}
	for _, tags := range [][]uint64{{1, 3}, {2, 2}, {2, 1}, {0}, {}, {1}, {1, 2, 0}} {
		s := Derive(7, tags...)
		if seen[s] {
			t.Fatalf("Derive(7, %v) collides with an earlier derivation", tags)
		}
		seen[s] = true
	}
	if Derive(8, 1, 2) == a {
		t.Error("different base seeds should derive different streams")
	}
}

func TestDeriveStreamsUncorrelated(t *testing.T) {
	// Neighboring trial indices must yield streams that do not track each
	// other: compare first draws across 100 sibling streams.
	seen := map[int64]bool{}
	for trial := uint64(0); trial < 100; trial++ {
		v := New(Derive(1, trial)).Int63()
		if seen[v] {
			t.Fatalf("trial %d repeats another stream's first draw", trial)
		}
		seen[v] = true
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 7
	idx := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if gu != u || gv != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}
