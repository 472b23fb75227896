package randx

import (
	"math"
	"math/rand"
	"testing"
)

// seeded returns a Source seeded with seed.
func seeded(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// equivalenceSeeds returns the seeds the Source equivalence test
// covers: the edge cases of math/rand's seed reduction (0 and the
// multiples of 2³¹−1 map to 89482311; negatives wrap), the extremes of
// int64, and 3,000 seeds spread over small integers, world seeds (the
// non-negative Int63 draws the world loop derives) and arbitrary
// 64-bit values.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		int32max, -int32max, 2 * int32max, -2 * int32max, int32max - 1, int32max + 1,
		89482311, -89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		-7, -123456789, -1 << 40,
	}
	for i := int64(3); i < 1003; i++ {
		seeds = append(seeds, i)
	}
	master := New(20261017)
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, master.Int63())
	}
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(master.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand pins the port draw for draw: for every
// seed, Int63 reproduces rand.NewSource's stream and Float64
// reproduces (*rand.Rand).Float64's, including after a reseed of a
// used Source.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	ref := rand.New(rand.NewSource(0))
	src := seeded(12345)
	for _, seed := range equivalenceSeeds() {
		ref.Seed(seed)
		src.Seed(seed)
		for d := 0; d < draws; d++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, d, got, want)
			}
		}
		ref.Seed(seed)
		src.Seed(seed)
		for d := 0; d < draws; d++ {
			if got, want := src.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, d, got, want)
			}
		}
	}
}

// TestSourceFloat64Redraw exercises the branch no seed reaches in
// practice: an Int63 of at least 2⁶³−2⁹ rounds to 1 when divided by
// 2⁶³, and Float64 must discard it and return the next draw's value,
// as (*rand.Rand).Float64 does on the same state.
func TestSourceFloat64Redraw(t *testing.T) {
	for _, high := range []int64{rngMask, rngMask - 1, 1<<63 - 1<<9} {
		src := seeded(42)
		// The next Uint64 adds vec[feed-1] and vec[tap-1] (tap wraps
		// from 0 to rngLen-1); choose the feed word so the sum is high.
		src.vec[src.feed-1] = high - src.vec[rngLen-1]
		probe := *src
		first := probe.Int63()
		if first != high || float64(first)/(1<<63) != 1 {
			t.Fatalf("crafted state draws %d, want %d rounding to 1", first, high)
		}
		want := float64(probe.Int63()) / (1 << 63)

		viaRand := *src
		if got := rand.New(&viaRand).Float64(); got != want {
			t.Fatalf("high %d: math/rand's Float64 on the crafted state = %v, want the redraw %v", high, got, want)
		}
		if got := src.Float64(); got != want {
			t.Fatalf("high %d: Float64 = %v, want the redraw %v", high, got, want)
		}
		if src.tap != probe.tap || src.feed != probe.feed {
			t.Fatalf("high %d: Float64 consumed a different number of draws than two", high)
		}
	}
	// Just below the rounding threshold the quotient stays below 1 and
	// is returned as is.
	src := seeded(42)
	below := int64(1<<63 - 1<<9 - 1)
	src.vec[src.feed-1] = below - src.vec[rngLen-1]
	if got := src.Float64(); got >= 1 || got != float64(below)/(1<<63) {
		t.Fatalf("Float64 below the threshold = %v, want %v", got, float64(below)/(1<<63))
	}
}

// BenchmarkSourceSeed and BenchmarkMathRandSeed compare one reseed of
// the port with math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	src := seeded(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	rng := New(1)
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
	}
}
