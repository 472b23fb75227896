package hll

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
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

// eachKernel calls f once per path this CPU runs, with the selector
// set: the portable Go path, then the AVX2 kernels where the CPU has
// them. It restores the selector afterwards.
func eachKernel(f func(kernel string)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx := range []bool{false, true} {
		if avx && !haveAVX2 {
			continue
		}
		useAVX2 = avx
		kernel := "go"
		if avx {
			kernel = "avx2"
		}
		f(kernel)
	}
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
			eachKernel(func(kernel string) {
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
// drawn from a shared bank — into a counter on every kernel and
// requires the registers and change flag of bytewise Unions of the
// same sources in order, for every register exponent. Registers range
// over [0, 0x7F]; sources are independent, never above dst (no
// change), dst with one register raised in one source, or dst with one
// register of the last 32-byte block raised in one source. Below
// b = 7 only the Go path runs (b = 4 is its word-at-a-time tail alone,
// b = 5 one four-word block); b = 7 is exactly one 128-byte block of
// the AVX2 kernel, and b = 8 two.
func TestFoldMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for b := 4; b <= 16; b++ {
		m, words := 1<<b, Words(b)
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
				offs := make([]int, len(srcs))
				for i, s := range srcs {
					if bytewiseUnion(want, bank[s*m:(s+1)*m]) {
						wantChanged = true
					}
					offs[i] = s * words
				}
				eachKernel(func(kernel string) {
					c := FromWords(pack(dst))
					if got := c.Fold(pack(bank), offs); got != wantChanged {
						t.Errorf("%s b=%d sources=%d trial %d: Fold reported %v, bytewise %v", kernel, b, sources, trial, got, wantChanged)
					}
					if !bytes.Equal(unpack(c.w), want) {
						t.Fatalf("%s b=%d sources=%d trial %d: folded registers differ from the bytewise maxima", kernel, b, sources, trial)
					}
				})
			}
		}
	}
}

// TestFoldOffsetPastBankPanics requires Fold to panic on every kernel
// for a source that does not lie inside bank: one starting a word past
// the last whole counter, one starting at bank's end, one ending in
// bank's spare capacity, and a negative offset.
func TestFoldOffsetPastBankPanics(t *testing.T) {
	for _, b := range []int{4, 5, 6, 7, 9} {
		words := Words(b)
		bank := make([]uint64, 3*words, 5*words)
		for _, o := range []int{2*words + 1, 3 * words, 3*words + 1, -1} {
			eachKernel(func(kernel string) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s b=%d: Fold at offset %d of a %d-word bank did not panic", kernel, b, o, len(bank))
					}
				}()
				New(b).Fold(bank, []int{0, o})
			})
		}
	}
}

// TestEstimateMatchesBytewise requires Estimate to return the bytewise
// estimator's float bit for bit on every kernel, for every register
// exponent, on counters reaching each of its paths:
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
		m, top := 1<<b, 65-b
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
		for i, regs := range cases {
			want := bytewiseEstimate(regs)
			eachKernel(func(kernel string) {
				if got := FromWords(pack(regs)).Estimate(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s b=%d case %d: Estimate = %v (%#x), bytewise %v (%#x)", kernel, b, i, got, math.Float64bits(got), want, math.Float64bits(want))
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
