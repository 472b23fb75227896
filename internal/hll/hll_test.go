package hll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000} {
		c := New(10) // 1024 registers, ~3.25% RSD
		for i := 0; i < n; i++ {
			c.AddHash(Hash64(uint64(i), 7))
		}
		est := c.Estimate()
		if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.12 {
			t.Errorf("n=%d: estimate %v, relative error %v", n, est, rel)
		}
	}
}

func TestEstimateEmpty(t *testing.T) {
	c := New(6)
	if got := c.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v, want 0 (linear counting of all-zero registers)", got)
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	c := New(8)
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 100; i++ {
			c.AddHash(Hash64(uint64(i), 3))
		}
	}
	est := c.Estimate()
	if est > 130 || est < 70 {
		t.Errorf("estimate with duplicates = %v, want ~100", est)
	}
}

func TestUnionEqualsUnionOfSets(t *testing.T) {
	a, b, ab := New(9), New(9), New(9)
	for i := 0; i < 500; i++ {
		h := Hash64(uint64(i), 11)
		a.AddHash(h)
		ab.AddHash(h)
	}
	for i := 400; i < 1000; i++ {
		h := Hash64(uint64(i), 11)
		b.AddHash(h)
		ab.AddHash(h)
	}
	u := a.Clone()
	u.Union(b)
	// Union of sketches must equal the sketch of the union, exactly.
	if !regsEqual(u, ab) {
		t.Fatal("union sketch differs from sketch of union")
	}
}

func TestUnionChangeReporting(t *testing.T) {
	a, b := New(6), New(6)
	for i := 0; i < 50; i++ {
		b.AddHash(Hash64(uint64(i), 5))
	}
	if !a.Union(b) {
		t.Error("union with larger sketch should report change")
	}
	if a.Union(b) {
		t.Error("repeated union should be a no-op")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(6)
	a.AddHash(Hash64(1, 1))
	b := a.Clone()
	b.AddHash(Hash64(999, 1))
	if a.Estimate() == b.Estimate() {
		// They could coincide by hashing to the same register/rank;
		// check registers directly.
		if regsEqual(a, b) {
			t.Skip("hash collision made registers identical; acceptable")
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(6), New(6)
	for i := 0; i < 100; i++ {
		a.AddHash(Hash64(uint64(i), 9))
	}
	b.CopyFrom(a)
	if !regsEqual(a, b) {
		t.Fatal("CopyFrom must copy all registers")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	a, b := New(6), New(7)
	a.Union(b)
}

func TestNewValidation(t *testing.T) {
	for _, b := range []int{0, 3, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", b)
				}
			}()
			New(b)
		}()
	}
}

func TestHash64SeedDecorrelates(t *testing.T) {
	same := 0
	for i := 0; i < 1000; i++ {
		if Hash64(uint64(i), 1) == Hash64(uint64(i), 2) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/1000 hashes collide across seeds", same)
	}
}

// TestPow2NegMatchesExp2 pins the table Estimate reads: every entry is
// bit-identical to math.Exp2(-r).
func TestPow2NegMatchesExp2(t *testing.T) {
	for r := 0; r < 256; r++ {
		if got, want := pow2neg[r], math.Exp2(-float64(r)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("pow2neg[%d] = %v, want math.Exp2(%d) = %v", r, got, -r, want)
		}
	}
}

// pack returns registers as counter words: register 8k+j is byte j of
// word k.
func pack(regs []byte) []uint64 {
	w := make([]uint64, len(regs)/8)
	for k := range w {
		w[k] = binary.LittleEndian.Uint64(regs[8*k:])
	}
	return w
}

// unpack is pack's inverse.
func unpack(w []uint64) []byte {
	regs := make([]byte, 8*len(w))
	for k, x := range w {
		binary.LittleEndian.PutUint64(regs[8*k:], x)
	}
	return regs
}

// bytewiseUnion is the register-at-a-time maximum the broadword Union
// and Fold must reproduce.
func bytewiseUnion(dst, src []byte) bool {
	changed := false
	for i, r := range src {
		if r > dst[i] {
			dst[i] = r
			changed = true
		}
	}
	return changed
}

// bytewiseEstimate is the register-at-a-time estimator Estimate must
// reproduce bit for bit: 2^-r summed in register order, the bias
// correction, and linear counting in the small range.
func bytewiseEstimate(regs []byte) float64 {
	m := float64(len(regs))
	var invSum float64
	zeros := 0
	for _, r := range regs {
		invSum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(regs)) * m * m / invSum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// randomRegs returns m registers, each uniform in [lo, hi].
func randomRegs(rng *rand.Rand, m, lo, hi int) []byte {
	regs := make([]byte, m)
	for i := range regs {
		regs[i] = byte(lo + rng.Intn(hi-lo+1))
	}
	return regs
}

// raiseOne returns a copy of regs with one register among the last
// min(32, len) raised by at least one: growth confined to the last
// 32-byte block.
func raiseOne(rng *rand.Rand, regs []byte) []byte {
	out := append([]byte(nil), regs...)
	tail := len(out) - min(32, len(out))
	i := tail + rng.Intn(len(out)-tail)
	for out[i] == 0x7F {
		i = tail + rng.Intn(len(out)-tail)
	}
	out[i] += byte(1 + rng.Intn(0x7F-int(out[i])))
	return out
}

// raiseFirst is raiseOne for the first min(32, len) registers: growth
// confined to the first 32-byte block.
func raiseFirst(rng *rand.Rand, regs []byte) []byte {
	out := append([]byte(nil), regs...)
	head := min(32, len(out))
	i := rng.Intn(head)
	for out[i] == 0x7F {
		i = rng.Intn(head)
	}
	out[i] += byte(1 + rng.Intn(0x7F-int(out[i])))
	return out
}

// TestUnionMatchesBytewise drives Union on every kernel and the
// bytewise reference over random register pairs in [0, 0x7F], for
// every register exponent — independent pairs, pairs where src never
// exceeds dst (no change), pairs differing in one raised register, and
// pairs differing only in the last 32-byte block — and requires the
// same registers and the same change flag. A counter unioned with
// itself must report no change and keep its registers. Each exponent
// runs 60 trials, except b = 11 to 15 at 12 each.
func TestUnionMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for b := 4; b <= 16; b++ {
		m, trials := 1<<b, 60
		if b > 10 && b < 16 {
			trials = 12
		}
		for trial := 0; trial < trials; trial++ {
			dst := randomRegs(rng, m, 0, 0x7F)
			src := make([]byte, m)
			switch trial % 4 {
			case 0:
				src = randomRegs(rng, m, 0, 0x7F)
			case 1:
				for i := range src {
					src[i] = byte(rng.Intn(int(dst[i]) + 1))
				}
			case 2:
				copy(src, dst)
				i := rng.Intn(m)
				src[i] = dst[i] + byte(rng.Intn(0x80-int(dst[i])))
			case 3:
				src = raiseOne(rng, dst)
			}
			want := append([]byte(nil), dst...)
			wantChanged := bytewiseUnion(want, src)
			EachKernel(func(kernel string) {
				c := FromWords(pack(dst))
				if got := c.Union(FromWords(pack(src))); got != wantChanged {
					t.Errorf("%s b=%d trial %d: Union reported %v, bytewise %v", kernel, b, trial, got, wantChanged)
				}
				if !bytes.Equal(unpack(c.w), want) {
					t.Fatalf("%s b=%d trial %d: registers differ from the bytewise maximum", kernel, b, trial)
				}
				if c.Union(c) {
					t.Errorf("%s b=%d trial %d: a counter unioned with itself reported growth", kernel, b, trial)
				}
				if !bytes.Equal(unpack(c.w), want) {
					t.Fatalf("%s b=%d trial %d: a union with itself changed the registers", kernel, b, trial)
				}
			})
		}
	}
}

// TestFoldMatchesBytewise folds one source and many — with repeats,
// drawn from a shared bank — into a counter through Step on every
// kernel and requires the registers and change flag of bytewise unions
// of the same sources in order, for every register exponent. The
// counter is listed alone, first in a bank that holds it and then the
// sources, which have none. Registers range over [0, 0x7F]; sources are independent,
// never above dst (no change), dst with one register raised in one
// source, or dst with one register of the last 32-byte block raised in
// one source. Below b = 7 only the Go path runs (b = 4 is its
// word-at-a-time tail alone, b = 5 one four-word block); b = 7 is
// exactly one 128-byte block of the AVX2 kernel, and b = 8 two.
func TestFoldMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for b := 4; b <= 16; b++ {
		m := 1 << b
		counts, trials := []int{1, 2, 3, 9, 40}, 32
		if b > 10 {
			counts, trials = []int{1, 3, 9}, 8
		}
		for _, sources := range counts {
			for trial := 0; trial < trials; trial++ {
				dst := randomRegs(rng, m, 0, 0x7F)
				bank := make([]byte, 0, sources*m)
				for s := 0; s < sources; s++ {
					src := make([]byte, m)
					switch trial % 4 {
					case 0:
						src = randomRegs(rng, m, 0, 0x7F)
					case 1:
						for i := range src {
							src[i] = byte(rng.Intn(int(dst[i]) + 1))
						}
					case 2, 3:
						copy(src, dst)
					}
					bank = append(bank, src...)
				}
				switch s := rng.Intn(sources); trial % 4 {
				case 2: // one raised register in one source
					i := s*m + rng.Intn(m)
					bank[i] += byte(rng.Intn(0x80 - int(bank[i])))
				case 3:
					copy(bank[s*m:], raiseOne(rng, bank[s*m:(s+1)*m]))
				}
				// Every source once in a shuffled order, plus repeats.
				srcs := rng.Perm(sources)
				for r := rng.Intn(3); r > 0; r-- {
					srcs = append(srcs, rng.Intn(sources))
				}
				want := append([]byte(nil), dst...)
				wantChanged := false
				vs := make([]int32, len(srcs))
				for i, s := range srcs {
					if bytewiseUnion(want, bank[s*m:(s+1)*m]) {
						wantChanged = true
					}
					vs[i] = int32(1 + s)
				}
				cur := pack(append(append([]byte(nil), dst...), bank...))
				var k Batch
				k.Reset(b, 1+sources, 0)
				k.Add(vs)
				for s := 0; s < sources; s++ {
					k.Add(nil)
				}
				EachKernel(func(kernel string) {
					next := make([]uint64, len(cur))
					grown := k.Step(next, cur, []int32{0}, nil)
					if got := len(grown) == 1; got != wantChanged {
						t.Errorf("%s b=%d sources=%d trial %d: Step reported growth %v, bytewise %v", kernel, b, sources, trial, got, wantChanged)
					}
					if !bytes.Equal(unpack(next[:Words(b)]), want) {
						t.Fatalf("%s b=%d sources=%d trial %d: folded registers differ from the bytewise maxima", kernel, b, sources, trial)
					}
				})
			}
		}
	}
}

// bytewiseScan returns a counter's zero-register count, the OR of its
// registers as packed words and, if it has fewer than linearZeros zero
// registers and none reaches 32, Σ 2^(31-r) over its registers, a
// register at a time; otherwise the unit sum is 0.
func bytewiseScan(regs []byte, linearZeros int) (zeros int, or, units uint64) {
	high := false
	for i, r := range regs {
		if r == 0 {
			zeros++
		}
		or |= uint64(r) << (i % 8 * 8)
		high = high || r >= 32
		units += 1 << (31 - min(r, 31))
	}
	if zeros >= linearZeros || high {
		units = 0
	}
	return zeros, or, units
}

// TestStepMatchesBytewise drives Step on every kernel, for every
// register exponent, over a bank of counters and a list that covers
// every kind of listed vertex: random sources with repeats, a
// self-source alone (which must report no growth), a self-source among
// others, no sources (a plain copy, no growth), sources raising one
// register of the first or of the last 32-byte block only, and sources
// never above the counter. Registers range over [0, 0x7F], below 32 in
// every third counter (the unit sum decides its estimate) and mostly
// zero in every third (the zero count does). It requires:
//   - every listed counter's registers in next to be the bytewise
//     maxima, and every unlisted counter in next to be untouched;
//   - a Growth for exactly the spans whose counter changed, in list
//     order, whose zero count, OR and unit sum equal the bytewise
//     values and what Estimate's scan returns for the stored counter;
//   - Batch.Estimate of each Growth to equal the bytewise estimator's
//     float bit for bit.
func TestStepMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for b := 4; b <= 16; b++ {
		m, words := 1<<b, Words(b)
		trials := 12
		if b > 10 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			const listed = 9
			// Counters 0-8 are listed, 9-11 unlisted, and 12-14 are
			// extra sources: copies of counters 5, 6 and 8 with one
			// register of the first, last and first block raised.
			regs := make([][]byte, 15)
			for v := 0; v < 12; v++ {
				hi := 0x7F
				if v%3 == 1 {
					hi = 31 // every register below 32: the unit sum decides
				}
				regs[v] = randomRegs(rng, m, 0, hi)
				if v%3 == 2 { // mostly zero: the zero count decides
					for i := range regs[v] {
						if rng.Intn(10) < 7 {
							regs[v][i] = 0
						}
					}
				}
			}
			regs[12] = raiseFirst(rng, regs[5])
			regs[13] = raiseOne(rng, regs[6])
			regs[14] = raiseFirst(rng, regs[8])
			var lower []byte // never above counter 7
			for _, r := range regs[7] {
				lower = append(lower, byte(rng.Intn(int(r)+1)))
			}
			regs[11] = lower
			sources := [listed][]int32{
				{9, 10, 9, 4},  // random, with a repeat
				{1},            // self alone: no growth
				{2, 0, 2, 10},  // self among others
				{},             // no sources: a copy
				{4, 10, 1, 10}, // self first, all below 32, a repeat
				{12},           // first block raised
				{13, 13},       // last block raised, repeated
				{11, 7},        // never above the counter
				{14, 8, 14},    // first block raised, self between
			}
			var cur []uint64
			for _, r := range regs {
				cur = append(cur, pack(r)...)
			}
			var k Batch
			k.Reset(b, len(regs), 0)
			want := make([][]byte, listed)
			var list []int32
			var wantGrown []int
			for v, ss := range sources {
				want[v] = append([]byte(nil), regs[v]...)
				grew := false
				for _, s := range ss {
					if bytewiseUnion(want[v], regs[s]) {
						grew = true
					}
				}
				if grew {
					wantGrown = append(wantGrown, v)
				}
				k.Add(ss)
				list = append(list, int32(v))
			}
			for v := listed; v < len(regs); v++ {
				k.Add([]int32{int32(v), 0}) // sources of unlisted counters are never read
			}
			stale := pack(randomRegs(rng, len(regs)*m, 0, 0x7F))
			lz := tableFor(uint(b)).linearZeros
			EachKernel(func(kernel string) {
				next := append([]uint64(nil), stale...)
				grown := k.Step(next, cur, list, nil)
				for v := range regs {
					got := unpack(next[v*words : (v+1)*words])
					if v < listed && !bytes.Equal(got, want[v]) {
						t.Errorf("%s b=%d trial %d: counter %d differs from the bytewise maxima", kernel, b, trial, v)
					}
					if v >= listed && !bytes.Equal(got, unpack(stale[v*words:(v+1)*words])) {
						t.Errorf("%s b=%d trial %d: unlisted counter %d was written", kernel, b, trial, v)
					}
				}
				if len(grown) != len(wantGrown) {
					t.Fatalf("%s b=%d trial %d: %d counters grew, want %d (%v)", kernel, b, trial, len(grown), len(wantGrown), wantGrown)
				}
				for i, g := range grown {
					v := wantGrown[i]
					if g.V != v {
						t.Fatalf("%s b=%d trial %d: growth %d reports vertex %d, want %d", kernel, b, trial, i, g.V, v)
					}
					zeros, or, units := bytewiseScan(want[v], lz)
					if g.zeros != zeros || g.or != or || g.units != units {
						t.Errorf("%s b=%d trial %d: counter %d scanned (%d, %#x, %d), bytewise (%d, %#x, %d)", kernel, b, trial, v, g.zeros, g.or, g.units, zeros, or, units)
					}
					if z, o, u := scanWords(next[v*words:(v+1)*words], lz); g.zeros != z || g.or != o || g.units != u {
						t.Errorf("%s b=%d trial %d: counter %d scanned (%d, %#x, %d), Estimate's scan (%d, %#x, %d)", kernel, b, trial, v, g.zeros, g.or, g.units, z, o, u)
					}
					if got, want := k.Estimate(next, g), bytewiseEstimate(want[v]); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s b=%d trial %d: counter %d estimate %v, bytewise %v", kernel, b, trial, v, got, want)
					}
				}
			})
		}
	}
}

// TestFoldOffsetPastBankPanics requires every fold outside the bank to
// panic on every kernel, before Step writes any word of next: Add of a
// source at or past the counter count or negative, and past the last
// counter; and a Step whose list starts with a valid vertex but then
// names one at or past the counter count or a negative one, whose
// banks do not hold exactly the Reset's counters or share a word, or
// that comes before every counter has its sources.
func TestFoldOffsetPastBankPanics(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, b := range []int{4, 5, 6, 7, 9} {
		words := Words(b)
		for _, u := range []int32{3, 4, -1} {
			var k Batch
			k.Reset(b, 3, 0)
			panics(fmt.Sprintf("b=%d: Add of source %d to a 3-counter bank", b, u), func() { k.Add([]int32{0, u}) })
		}
		var k Batch
		k.Reset(b, 3, 0)
		k.Add([]int32{1, 2})
		k.Add([]int32{0})
		panics(fmt.Sprintf("b=%d: Step before the last counter's sources", b), func() {
			k.Step(make([]uint64, 3*words), make([]uint64, 3*words), nil, nil)
		})
		k.Add(nil)
		panics(fmt.Sprintf("b=%d: Add past the last counter", b), func() { k.Add(nil) })
		cur := make([]uint64, 3*words, 5*words)
		cur[words] = 1 // so vertex 0 would grow
		for _, v := range []int32{3, 4, -1} {
			EachKernel(func(kernel string) {
				next := make([]uint64, 3*words)
				panics(fmt.Sprintf("%s b=%d: Step listing vertex %d", kernel, b, v), func() {
					k.Step(next, cur, []int32{0, v}, nil)
				})
				for i, x := range next {
					if x != 0 {
						t.Errorf("%s b=%d: Step listing vertex %d wrote word %d before panicking", kernel, b, v, i)
						break
					}
				}
			})
		}
		for _, lens := range [][2]int{{2 * words, 3 * words}, {3 * words, 4 * words}, {3*words + 1, 3*words + 1}} {
			panics(fmt.Sprintf("b=%d: Step over banks of %d and %d words", b, lens[0], lens[1]), func() {
				k.Step(make([]uint64, lens[0]), make([]uint64, lens[1]), []int32{0}, nil)
			})
		}
		// Halves of a six-counter bank whose odd counters hold ones:
		// sharing all, most or one word must panic with the bank
		// unchanged, and adjacent halves must not panic.
		bank := make([]uint64, 6*words)
		for i := range bank {
			bank[i] = uint64(i / words % 2)
		}
		before := append([]uint64(nil), bank...)
		for _, halves := range [][2][]uint64{
			{bank[:3*words], bank[:3*words]},
			{bank[:3*words], bank[words : 4*words]},
			{bank[words : 4*words], bank[:3*words]},
			{bank[:3*words], bank[3*words-1 : 6*words-1]},
			{bank[3*words-1 : 6*words-1], bank[:3*words]},
		} {
			EachKernel(func(kernel string) {
				panics(fmt.Sprintf("%s b=%d: Step over overlapping banks", kernel, b), func() {
					k.Step(halves[0], halves[1], []int32{0}, nil)
				})
				if !slices.Equal(bank, before) {
					t.Errorf("%s b=%d: Step over overlapping banks wrote a word before panicking", kernel, b)
					copy(bank, before)
				}
			})
		}
		k.Step(bank[:3*words], bank[3*words:], []int32{0}, nil)
		k.Step(bank[3*words:], bank[:3*words], []int32{0}, nil)
	}
}

// TestStepSplitsLongLists requires a Step whose list holds several
// times runWords words of counters, so that it splits into several
// calls of its path, to store the same counters and report the same
// Growths as one Step per listed vertex, on every kernel, at b = 7 and
// b = 16. About three in four vertices are listed, each with one to
// eight random sources (self-sources included) and registers below 32.
func TestStepSplitsLongLists(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, b := range []int{7, 16} {
		m, words := 1<<b, Words(b)
		n := 4 * runWords / words
		cur := pack(randomRegs(rng, n*m, 0, 31))
		stale := pack(randomRegs(rng, n*m, 0, 0x7F))
		var k Batch
		k.Reset(b, n, 0)
		var list []int32
		for v := 0; v < n; v++ {
			srcs := make([]int32, 1+rng.Intn(8))
			for i := range srcs {
				srcs[i] = int32(rng.Intn(n))
			}
			k.Add(srcs)
			if rng.Intn(4) > 0 {
				list = append(list, int32(v))
			}
		}
		if len(list)*words <= 2*runWords {
			t.Fatalf("b=%d: a list of %d counters is too short to split into three calls", b, len(list))
		}
		EachKernel(func(kernel string) {
			next := append([]uint64(nil), stale...)
			grown := k.Step(next, cur, list, nil)
			wantNext := append([]uint64(nil), stale...)
			var want []Growth
			for _, v := range list {
				want = k.Step(wantNext, cur, []int32{v}, want)
			}
			if !slices.Equal(next, wantNext) {
				t.Errorf("%s b=%d: a split Step stored other counters than one Step per vertex", kernel, b)
			}
			if !slices.Equal(grown, want) {
				t.Errorf("%s b=%d: a split Step reported %d growths, one Step per vertex %d, or they differ", kernel, b, len(grown), len(want))
			}
		})
	}
}

// TestSingletonIsOneElementEstimate requires Singleton to be, bit for
// bit, what Estimate returns for a counter after one AddHash, which
// leaves m-1 zero registers, for every register exponent and for
// hashes reaching the lowest and highest ranks.
func TestSingletonIsOneElementEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for b := 4; b <= 16; b++ {
		var k Batch
		k.Reset(b, 0, 0)
		if z, lz := 1<<b-1, tableFor(uint(b)).linearZeros; z < lz {
			t.Errorf("b=%d: a one-element counter has %d zero registers, below linearZeros %d", b, z, lz)
		}
		for _, h := range []uint64{rng.Uint64(), 0, ^uint64(0), 1 << (63 - b)} {
			c := New(b)
			c.AddHash(h)
			if got, want := k.Singleton(), c.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("b=%d hash %#x: Singleton %v, Estimate after one AddHash %v", b, h, got, want)
			}
		}
	}
}

// TestEstimateMatchesBytewise requires Estimate, and Batch.Estimate of
// the Growth that Step reports for the same registers on every kernel,
// to return the bytewise estimator's float bit for bit, for every
// register exponent, on counters reaching each of its paths:
//   - exactly linearZeros-1, linearZeros and linearZeros+1 zero
//     registers, the others all 1 (largest sum), all 65-b (smallest)
//     or random: the threshold where the zero count alone decides;
//   - one register at 31 (the last unit-summed value), 32 (the first
//     bytewise fallback), 53-b and 65-b (the largest rank AddHash
//     writes), the others random below 32 or zero;
//   - random registers up to 65-b and up to 0x7F, and counters filled
//     by AddHash from a few elements to many times m.
func TestEstimateMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for b := 4; b <= 16; b++ {
		m, top, words := 1<<b, 65-b, Words(b)
		var cases [][]byte
		zt := tableFor(uint(b)).linearZeros
		for z := zt - 1; z <= zt+1; z++ {
			if z < 0 || z > m {
				continue
			}
			for _, fill := range []func() byte{
				func() byte { return 1 },
				func() byte { return byte(top) },
				func() byte { return byte(1 + rng.Intn(top)) },
			} {
				regs := make([]byte, m)
				for _, i := range rng.Perm(m)[z:] {
					regs[i] = fill()
				}
				cases = append(cases, regs)
			}
		}
		for _, r := range []int{31, 32, 53 - b, top} {
			for _, hi := range []int{0, 31} {
				regs := randomRegs(rng, m, 0, hi)
				regs[rng.Intn(m)] = byte(r)
				cases = append(cases, regs)
			}
		}
		for trial := 0; trial < 8; trial++ {
			cases = append(cases, randomRegs(rng, m, 0, top), randomRegs(rng, m, 1, 31))
		}
		cases = append(cases, randomRegs(rng, m, 0, 0x7F)) // shift counts of 64 and more
		for _, elems := range []int{1, m / 8, m / 2, m, 3 * m, 20 * m} {
			c := New(b)
			for i := 0; i < elems; i++ {
				c.AddHash(rng.Uint64())
			}
			cases = append(cases, unpack(c.w))
		}
		var k Batch
		k.Reset(b, 2, 0)
		k.Add([]int32{1})
		k.Add(nil)
		for i, regs := range cases {
			want := bytewiseEstimate(regs)
			if got := FromWords(pack(regs)).Estimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("b=%d case %d: Estimate = %v (%#x), bytewise %v (%#x)", b, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// An empty counter listed with the case as its source grows
			// into the case's registers.
			cur := append(make([]uint64, words), pack(regs)...)
			EachKernel(func(kernel string) {
				next := make([]uint64, len(cur))
				grown := k.Step(next, cur, []int32{0}, nil)
				if len(grown) != 1 {
					t.Fatalf("%s b=%d case %d: an empty counter folding the case reported %d growths", kernel, b, i, len(grown))
				}
				if got := k.Estimate(next, grown[0]); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s b=%d case %d: Batch.Estimate = %v (%#x), bytewise %v (%#x)", kernel, b, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			})
		}
	}
}

// TestAddHashMatchesBytewise requires AddHash's packed register update
// to raise exactly the register a byte-per-register counter would, to
// the same rank.
func TestAddHashMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, b := range []int{4, 7, 16} {
		c, regs := New(b), make([]byte, 1<<b)
		for i := 0; i < 5<<b; i++ {
			h := rng.Uint64()
			if i%7 == 0 {
				h >>= rng.Intn(64) // long runs of leading zeros: high ranks
			}
			c.AddHash(h)
			idx := h >> (64 - b)
			rank := byte(bits.LeadingZeros64(h<<b|1<<(b-1))) + 1
			regs[idx] = max(regs[idx], rank)
		}
		if !bytes.Equal(unpack(c.w), regs) {
			t.Errorf("b=%d: packed registers differ from the byte-per-register counter", b)
		}
	}
}
