package randx

import (
	"math"
	"testing"
)

// fullThreshold is the definition CoinThreshold implements, searched
// over every 63-bit v: 63 halvings of [0, 2⁶³], whose top end's
// quotient is 1 >= p.
func fullThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestCoinThresholdMatchesFullSearch pins the windowed search to the
// full one: on 10⁵ random probabilities (half uniform, half spread over
// every binary exponent), on every power 2⁻ᵉ down to the smallest
// subnormal and both float64 neighbours of each, and on the extremes.
func TestCoinThresholdMatchesFullSearch(t *testing.T) {
	ps := []float64{0, 1, 1 - 0x1p-53, math.SmallestNonzeroFloat64, 0.5}
	for e := 0; e <= 1074; e++ {
		q := math.Ldexp(1, -e)
		ps = append(ps, q, math.Nextafter(q, 0), math.Nextafter(q, 1))
	}
	rng := New(20261018)
	for i := 0; i < 50000; i++ {
		ps = append(ps, rng.Float64())
		ps = append(ps, math.Ldexp(1+rng.Float64(), -1-rng.Intn(1074)))
	}
	for _, p := range ps {
		if p < 0 || p > 1 {
			continue
		}
		if got, want := CoinThreshold(p), fullThreshold(p); got != want {
			t.Fatalf("CoinThreshold(%v) = %d, full search %d", p, got, want)
		}
	}
}

// coinProbs returns n coin probabilities and their thresholds: uniform
// draws mixed with the edge cases of the coin test, the largest
// float64 below 1, subnormals and one half.
func coinProbs(n int, seed int64) ([]float64, []uint64) {
	edge := []float64{1 - 0x1p-53, math.SmallestNonzeroFloat64, 0x1p-1060, 0.5}
	rng := New(seed)
	ps := make([]float64, n)
	th := make([]uint64, n)
	for i := range ps {
		ps[i] = rng.Float64()
		if rng.Intn(8) == 0 {
			ps[i] = edge[rng.Intn(len(edge))]
		}
		th[i] = CoinThreshold(ps[i])
	}
	return ps, th
}

// float64Coins is the per-coin reference: present[i] = Float64() < p[i].
func float64Coins(src *Source, ps []float64) []bool {
	out := make([]bool, len(ps))
	for i, p := range ps {
		out[i] = src.Float64() < p
	}
	return out
}

// kernelWorld draws a world as the samplers do: Coins over the whole
// pass, split into calls at the given lengths, and, when Coins reports
// a draw Float64 discards, the per-coin loop again from the starting
// state. It returns the coins and the source after them.
func kernelWorld(start Source, ps []float64, th []uint64, splits ...int) ([]bool, Source, bool) {
	src := start
	out := make([]bool, len(ps))
	redraw := false
	lo := 0
	for _, n := range append(splits, len(ps)) {
		hi := min(lo+n, len(ps))
		if src.Coins(out[lo:hi], th[lo:hi]) {
			redraw = true
		}
		lo = hi
	}
	if redraw {
		src = start
		out = float64Coins(&src, ps)
	}
	return out, src, redraw
}

// checkWorld compares a kernel world with the per-coin reference drawn
// from the same starting state, coin for coin and by the draw that
// follows.
func checkWorld(t *testing.T, what string, got []bool, gotSrc Source, start Source, ps []float64) {
	t.Helper()
	ref := start
	want := float64Coins(&ref, ps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: coin %d of %d is %v, Float64 drew %v", what, i, len(ps), got[i], want[i])
		}
	}
	if g, w := gotSrc.Uint64(), ref.Uint64(); g != w {
		t.Fatalf("%s: next Uint64 after the coins is %d, reference %d", what, g, w)
	}
}

// TestCoinsMatchFloat64 pins the kernel to the per-coin loop from a
// fresh reseed, on draw counts that straddle every half-cycle edge of
// the first two cycles (334 draws, then 273), and with one pass split
// into calls at those edges and one off them.
func TestCoinsMatchFloat64(t *testing.T) {
	counts := []int{1, 333, 334, 335, 606, 607, 608, 940, 941, 942, 1214, 1215, 5000}
	ps, th := coinProbs(5000, 3)
	seeds := equivalenceSeeds()[:300]
	for _, seed := range seeds {
		start := *seeded(seed)
		for _, n := range counts {
			got, src, redraw := kernelWorld(start, ps[:n], th[:n])
			if redraw {
				t.Fatalf("seed %d: a redraw reported over %d draws", seed, n)
			}
			checkWorld(t, "one call", got, src, start, ps[:n])
		}
		for _, splits := range [][]int{{333, 1, 273}, {334, 273, 334}, {1, 332, 2, 272, 1}, {606, 2}, {100, 0, 900}} {
			got, src, _ := kernelWorld(start, ps[:1300], th[:1300], splits...)
			checkWorld(t, "split calls", got, src, start, ps[:1300])
		}
	}
}

// plant sets the source's state so that its draw ahead+1 from now has
// Int63 v, and leaves every earlier draw as it was. Draw ahead+1 adds a
// tap register into its feed register; for ahead < 334 no earlier draw
// reads or writes that feed register, so setting it to v minus the tap
// register's value at that draw is enough.
func plant(t *testing.T, src *Source, ahead int, v int64) {
	t.Helper()
	probe := *src
	for i := 0; i < ahead; i++ {
		probe.Uint64()
	}
	feed, tap := (probe.feed+rngLen-1)%rngLen, (probe.tap+rngLen-1)%rngLen
	src.vec[feed] = v - probe.vec[tap]
	probe = *src
	for i := 0; i < ahead; i++ {
		probe.Uint64()
	}
	if got := probe.Int63(); got != v {
		t.Fatalf("planted draw %d is %d, want %d", ahead, got, v)
	}
}

// TestCoinsPlantedRedraw plants a draw Float64 discards (the crafted
// state of TestSourceFloat64Redraw) at the first, a middle and the last
// draw of each half-cycle. Coins must report it, and the world drawn as
// the samplers draw it must be the per-coin loop's world, which
// redraws there and shifts every later coin. Just below the redraw
// bound, nothing is reported and the kernel's coins stand.
func TestCoinsPlantedRedraw(t *testing.T) {
	ps, th := coinProbs(1214, 5)
	for _, half := range []struct {
		name    string
		skip    int // draws before the half-cycle starts
		lastOff int // offset of its last draw
	}{{"first half-cycle", 0, 333}, {"second half-cycle", 334, 272}} {
		for _, off := range []int{0, half.lastOff / 2, half.lastOff} {
			for _, high := range []int64{rngMask, 1<<63 - 1<<9, 1<<63 - 1<<9 - 1} {
				start := *seeded(77)
				for i := 0; i < half.skip; i++ {
					start.Uint64()
				}
				plant(t, &start, off, high)
				got, src, redraw := kernelWorld(start, ps, th)
				if want := high >= redrawAt; redraw != want {
					t.Fatalf("%s, draw %d = %d: redraw reported %v, want %v", half.name, off, high, redraw, want)
				}
				checkWorld(t, half.name, got, src, start, ps)
			}
		}
	}
}

// TestCoinsAtThreshold plants each probability's threshold and its
// neighbours as a draw: the coin is v < CoinThreshold(p) exactly when
// Float64() < p, so a non-strict compare or a threshold one off fails.
func TestCoinsAtThreshold(t *testing.T) {
	ps := []float64{0.5, 0.3, 1 - 0x1p-53, 1 - 0x1p-40, math.SmallestNonzeroFloat64, 0x1p-1060, 1e-300, 0.999999}
	for _, p := range ps {
		c := CoinThreshold(p)
		for _, v := range []uint64{c - 1, c, c + 1} {
			if v >= redrawAt {
				continue
			}
			start := *seeded(int64(v))
			plant(t, &start, 5, int64(v))
			coins := make([]float64, 20)
			ths := make([]uint64, len(coins))
			for i := range coins {
				coins[i], ths[i] = p, c
			}
			got, src, _ := kernelWorld(start, coins, ths)
			checkWorld(t, "threshold", got, src, start, coins)
		}
	}
}

// FuzzCoins checks the kernel against the per-coin loop for any seed,
// draw count and probability in [0, 1], with the pass split in two.
func FuzzCoins(f *testing.F) {
	f.Add(int64(1), uint16(1), 0.5)
	f.Add(int64(2), uint16(333), 0.3)
	f.Add(int64(3), uint16(334), 1-0x1p-53)
	f.Add(int64(-4), uint16(607), math.SmallestNonzeroFloat64)
	f.Add(int64(5), uint16(942), 0.999)
	f.Add(int64(6), uint16(1215), 1e-10)
	f.Add(int64(7), uint16(5000), 0.0)
	f.Add(int64(8), uint16(2000), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, p float64) {
		if !(p >= 0 && p <= 1) || n == 0 {
			t.Skip()
		}
		ps := make([]float64, n)
		th := make([]uint64, n)
		c := CoinThreshold(p)
		for i := range ps {
			ps[i], th[i] = p, c
		}
		start := *seeded(seed)
		got, src, _ := kernelWorld(start, ps, th, int(n)/2)
		checkWorld(t, "fuzz", got, src, start, ps)
	})
}

// BenchmarkCoins and BenchmarkFloat64Coins compare one world's coin
// pass over 3,358 pairs (the serve tenant's candidate set), reseed
// included, through the kernel and through the per-coin loop.
func BenchmarkCoins(b *testing.B) {
	_, th := coinProbs(3358, 1)
	present := make([]bool, len(th))
	var src Source
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		src.Coins(present, th)
	}
}

func BenchmarkFloat64Coins(b *testing.B) {
	ps, _ := coinProbs(3358, 1)
	present := make([]bool, len(ps))
	var src Source
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for j, p := range ps {
			present[j] = src.Float64() < p
		}
	}
}
