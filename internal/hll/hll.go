// Package hll implements HyperLogLog cardinality counters with
// register-wise union — the primitive underlying HyperANF
// (Boldi–Rosa–Vigna, WWW'11), which the paper uses to estimate distance
// distributions on large graphs (§6.3).
//
// A counter with 2^b registers estimates set cardinality with
// relative standard deviation ~1.04/sqrt(2^b); unions are exact
// (register-wise max), which is what makes the ANF iteration sound.
//
// Registers are packed eight to a uint64 word: register 8k+j is byte j
// of word k. Every register is below 0x80 — AddHash's guard bit bounds
// a rank by 65-b <= 61 — and the word-at-a-time code (Step's fold,
// Estimate's zero count) relies on that clear top bit, so no per-byte
// step can borrow or carry into the next register.
//
// Counter is one sketch. Batch runs a HyperANF iteration over many
// counters that live in flat banks of words: one Step call folds each
// listed counter's sources into it, stores the result in the other
// bank, and scans every counter that grew for its zero count, word OR
// and, where the estimate reads it, exact unit sum. On amd64 CPUs with
// AVX2 and POPCNT whose OS saves the YMM registers, counters of 16
// words or more (b >= 7, HyperANF's default) take one assembly kernel
// chosen once at package init, which keeps each 128-byte block in four
// vector registers while every source folds in 32 bytes per VPMAXUB;
// Step calls it on bounded runs of its list, since Go cannot preempt
// assembly. A byte maximum and an integer sum are exact, so both paths
// store the same registers and report the same counts. Every other CPU,
// architecture and width runs the word-at-a-time Go code, which is the
// portable path and the kernel's test reference.
package hll

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"uncertaingraph/internal/cpu"
)

// Counter is a HyperLogLog sketch. The zero value is unusable; create
// counters with New or FromWords.
type Counter struct {
	w []uint64 // register 8k+j is byte j of w[k]
	b uint
}

// New returns a counter with 2^b registers, 4 <= b <= 16.
func New(b int) Counter {
	return Counter{w: make([]uint64, Words(b)), b: uint(b)}
}

// Words returns the number of uint64 words a counter with 2^b
// registers occupies — the per-counter slice size FromWords expects.
// It panics unless 4 <= b <= 16.
func Words(b int) int {
	if b < 4 || b > 16 {
		panic("hll: register exponent must be in [4, 16]")
	}
	return 1 << (b - 3)
}

// FromWords wraps an externally allocated word slice as a counter
// without copying: the caller owns the memory, so many counters can
// share one flat bank (the layout Batch works on). The slice length
// must be a power of two in [2, 8192], and every byte must be below
// 0x80 — true of a zeroed slice and of anything AddHash and Step write
// into it.
func FromWords(w []uint64) Counter {
	n := len(w)
	if n == 0 || n&(n-1) != 0 {
		panic("hll: word slice length must be a power of two")
	}
	b := uint(bits.TrailingZeros(uint(n))) + 3
	if b < 4 || b > 16 {
		panic("hll: register exponent must be in [4, 16]")
	}
	return Counter{w: w, b: b}
}

// Clone returns an independent copy.
func (c Counter) Clone() Counter {
	out := Counter{w: make([]uint64, len(c.w)), b: c.b}
	copy(out.w, c.w)
	return out
}

// AddHash inserts an element represented by a 64-bit hash. Use a
// high-quality hash (see Hash64) — register index and rank are both
// carved from it.
func (c Counter) AddHash(h uint64) {
	idx := h >> (64 - c.b)
	rest := h<<c.b | 1<<(c.b-1) // guard bit bounds the rank
	rank := uint64(bits.LeadingZeros64(rest)) + 1
	w, shift := &c.w[idx>>3], idx&7*8
	if rank > *w>>shift&0xFF {
		*w = *w&^(0xFF<<shift) | rank<<shift
	}
}

// Growth is what Batch.Step reports about a counter that grew: its
// vertex, and the zero-register count, word OR and unit sum of its new
// registers, from which Batch.Estimate computes its estimate.
type Growth struct {
	V     int
	zeros int
	or    uint64
	units uint64 // as scanWords returns it
}

// Batch runs HyperANF's fold over a bank of n counters of 2^b
// registers, vertex v's counter at words [v·w, (v+1)·w) with
// w = Words(b), and estimates the counters that grew. Reset readies it
// for a bank, and Add then records every vertex's sources in vertex
// order, checking each against the bank once, so each Step checks only
// its list. The zero value is ready for Reset.
type Batch struct {
	words, n int
	t        *estTable
	// Vertex v's sources are the counters at the word offsets
	// offs[start[v]:start[v+1]].
	start, offs []int
}

// Reset readies k for a bank of n counters of 2^b registers, with no
// sources recorded, reusing k's buffers and reserving room for the
// given number of sources in all. It panics unless 4 <= b <= 16.
func (k *Batch) Reset(b, n, sources int) {
	k.words, k.n, k.t = Words(b), n, tableFor(uint(b))
	k.start = append(slices.Grow(k.start[:0], n+1), 0)
	k.offs = slices.Grow(k.offs[:0], sources)
}

// Add records the sources of the next vertex: the counters of the
// vertices in srcs, in that order. It panics on a vertex outside the
// bank, and when every vertex already has its sources.
func (k *Batch) Add(srcs []int32) {
	if len(k.start) > k.n {
		panic("hll: Add past the bank's last counter")
	}
	for _, u := range srcs {
		if uint(int(u)) >= uint(k.n) {
			panic("hll: Add of a source outside the bank")
		}
		k.offs = append(k.offs, int(u)*k.words)
	}
	k.start = append(k.start, len(k.offs))
}

// Singleton returns the estimate of a counter holding one element.
// AddHash into a zeroed counter raises one register, leaving m-1 zero
// registers, which is at least linearZeros for every size, so Estimate
// returns linear[m-1] without reading the registers.
func (k *Batch) Singleton() float64 {
	return k.t.linear[8*k.words-1]
}

// Step runs one fold over the listed vertices. For each vertex v of
// list, in order, it loads v's counter from cur, takes the
// register-wise maximum with each of v's sources in cur, stores the
// result at v in next, and appends a Growth for v to grown if the
// result differs from the loaded counter. It returns grown. Both banks
// must hold exactly the n counters of the last Reset, must not overlap,
// and every vertex must have its sources. Step checks all of that and
// every listed vertex before it writes any word, and panics on a
// failure.
//
// Go cannot preempt assembly, so Step calls its path on runs of at most
// runWords/Words(b) listed vertices (4,096 at b = 7). A call then loads
// at most 512 KiB of listed counters, plus their sources, however large
// the world.
func (k *Batch) Step(next, cur []uint64, list []int32, grown []Growth) []Growth {
	if len(k.start) != k.n+1 {
		panic("hll: Step before every counter has its sources")
	}
	if len(next) != k.n*k.words || len(cur) != k.n*k.words {
		panic("hll: Step bank does not hold the Reset's counters")
	}
	if overlap(next, cur) {
		panic("hll: Step banks overlap")
	}
	for _, v := range list {
		if uint(int(v)) >= uint(k.n) {
			panic("hll: Step lists a vertex outside the bank")
		}
	}
	grown = slices.Grow(grown, len(list))
	for len(list) > 0 {
		run := min(len(list), runWords/k.words)
		out := grown[len(grown) : len(grown)+run]
		var m int
		if useAVX2 && k.words >= vectorWords {
			m = stepAVX2(next, cur, k.words, k.t.linearZeros, list[:run], k.start, k.offs, out)
		} else {
			m = stepWords(next, cur, k.words, k.t.linearZeros, list[:run], k.start, k.offs, out)
		}
		grown, list = grown[:len(grown)+m], list[run:]
	}
	return grown
}

// runWords bounds the words of the listed counters one call of Step's
// path loads.
const runWords = 1 << 16

// overlap reports whether two word slices share any word.
func overlap(a, b []uint64) bool {
	return len(a) > 0 && len(b) > 0 &&
		uintptr(unsafe.Pointer(&a[0])) <= uintptr(unsafe.Pointer(&b[len(b)-1])) &&
		uintptr(unsafe.Pointer(&b[0])) <= uintptr(unsafe.Pointer(&a[len(a)-1]))
}

// Estimate returns the estimate of the counter that g reports, whose
// registers Step stored in bank.
func (k *Batch) Estimate(bank []uint64, g Growth) float64 {
	o := g.V * k.words
	return k.t.estimate(bank[o:o+k.words], g.zeros, g.or, g.units)
}

// hi holds the top bit of every byte.
const hi = 0x8080808080808080

// max7 returns the register-wise maximum of two words whose bytes are
// all below 0x80. With every top bit clear, d = (a|hi) - b cannot
// borrow across bytes: each byte of d is 0x80 + a - b, whose top bit h
// is set exactly where a >= b. h - h>>7 widens that bit to the byte's
// low seven bits, keeping a - b there, so b + (d & keep) is a where
// a >= b and b elsewhere, again with no carry across bytes.
func max7(a, b uint64) uint64 {
	d := (a | hi) - b
	h := d & hi
	return b + d&(h-h>>7)
}

// haveAVX2 reports whether this CPU runs the AVX2 kernel, which also
// uses POPCNT.
var haveAVX2 = cpu.AVX2 && cpu.POPCNT

// useAVX2 selects the amd64 AVX2 kernel for counters of at least
// vectorWords words. It is set once, from the CPU, at package init;
// only tests switch it, through EachKernel.
var useAVX2 = haveAVX2

// vectorWords is the fewest words a counter needs to take the AVX2
// kernel: one 128-byte block, a counter of 2^7 registers.
const vectorWords = 16

// EachKernel calls f once per path this CPU runs Step on, with that
// path selected: the portable Go path, then the AVX2 kernel where the
// CPU has it. It restores the selection afterwards. It exists for the
// tests that pin both paths, here and in HyperANF; nothing else calls
// it, and nothing may run Step concurrently with it.
func EachKernel(f func(kernel string)) {
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

// stepWords is Step's portable path and the AVX2 kernel's reference,
// for a checked list: it writes each grown counter's Growth to out and
// returns how many it wrote.
func stepWords(next, cur []uint64, w, linearZeros int, list []int32, start, offs []int, out []Growth) int {
	m := 0
	for _, v := range list {
		o := int(v) * w
		dst := next[o : o+w : o+w]
		if foldWords(dst, cur[o:o+w:o+w], cur, offs[start[v]:start[v+1]]) {
			zeros, or, units := scanWords(dst, linearZeros)
			out[m] = Growth{V: int(v), zeros: zeros, or: or, units: units}
			m++
		}
	}
	return m
}

// foldWords stores in dst the register-wise maximum of base and every
// counter of bank that starts at a word offset in srcs, each len(dst)
// words long, and reports whether dst differs from base. It walks the
// counter four words at a time, holding them in registers while every
// source's words fold in, so each word is loaded and stored once
// however many sources there are; a counter of 16 registers has two
// words and takes the word-at-a-time tail alone. A maximum never
// falls, so the counter grew exactly when some word's final maximum
// differs from its first value.
func foldWords(dst, base, bank []uint64, srcs []int) bool {
	var grew uint64
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		b := base[k : k+4 : k+4]
		a0, a1, a2, a3 := b[0], b[1], b[2], b[3]
		for _, o := range srcs {
			s := bank[o+k : o+k+4 : o+k+4]
			a0 = max7(a0, s[0])
			a1 = max7(a1, s[1])
			a2 = max7(a2, s[2])
			a3 = max7(a3, s[3])
		}
		grew |= (a0 ^ b[0]) | (a1 ^ b[1]) | (a2 ^ b[2]) | (a3 ^ b[3])
		d := dst[k : k+4 : k+4]
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	for ; k < len(dst); k++ {
		a := base[k]
		for _, o := range srcs {
			a = max7(a, bank[o+k])
		}
		grew |= a ^ base[k]
		dst[k] = a
	}
	return grew != 0
}

// Estimate returns the cardinality estimate with the standard bias
// correction and the small-range (linear counting) correction, bit for
// bit what the textbook register-at-a-time loop returns:
//
//	invSum = Σ 2^-r in register order; est = α·m·m / invSum;
//	linear counting m·ln(m/zeros) if est <= 2.5·m and zeros > 0.
//
// It scans the registers for their zero count, word OR and unit sum
// (scanWords) and hands them to the estimate that Batch.Estimate also
// runs (estTable.estimate, which states why the result is exact).
func (c Counter) Estimate() float64 {
	t := tableFor(c.b)
	zeros, or, units := scanWords(c.w, t.linearZeros)
	return t.estimate(c.w, zeros, or, units)
}

const (
	lo7     = 0x7F7F7F7F7F7F7F7F
	bit5or6 = 0x6060606060606060 // set in a byte exactly when it is >= 32
)

// scanWords returns the zero-register count of w and the OR of its
// words and, only where the estimate reads it — fewer than linearZeros
// zero registers, every register below 32 — Σ 2^(31-r) over its
// registers, in units of 2^-31; otherwise the unit sum is 0. These are
// the values the AVX2 kernel returns for a counter that grew.
func scanWords(w []uint64, linearZeros int) (zeros int, or, units uint64) {
	for _, x := range w {
		// A byte below 0x80 plus 0x7F reaches the top bit exactly
		// when it is non-zero.
		zeros += bits.OnesCount64(^(x + lo7) & hi)
		or |= x
	}
	if zeros >= linearZeros || or&bit5or6 != 0 {
		return zeros, or, 0
	}
	for _, x := range w {
		units += unit[x&31] + unit[x>>8&31] + unit[x>>16&31] + unit[x>>24&31] +
			unit[x>>32&31] + unit[x>>40&31] + unit[x>>48&31] + unit[x>>56&31]
	}
	return zeros, or, units
}

// unit[r] is 2^-r in units of 2^-31.
var unit = func() (t [32]uint64) {
	for r := range t {
		t[r] = 1 << (31 - r)
	}
	return t
}()

// sumBytewise returns Σ 2^-r over the registers of w, added in
// register order — the textbook loop, and the estimate's fallback for
// a counter holding a register of 32 or more, where partial sums can
// round.
func sumBytewise(w []uint64) float64 {
	var s float64
	for _, x := range w {
		for j := 0; j < 64; j += 8 {
			s += pow2neg[x>>j&0xFF]
		}
	}
	return s
}

// pow2neg[r] is 2^-r. A power of two with an integer exponent is
// exact: math.Exp2's argument reduction leaves a zero fraction and ends
// in Ldexp(1, -r), so the table holds exactly the values the call
// returns and the estimate's sum is unchanged bit for bit.
var pow2neg = func() (t [256]float64) {
	for r := range t {
		t[r] = math.Exp2(-float64(r))
	}
	return t
}()

// estTable holds the estimate's per-size constants for counters of 2^b
// registers.
type estTable struct {
	// alphaMM is α·m·m, rounded operation by operation as Estimate's
	// formula α·m·m/invSum rounds it.
	alphaMM float64
	// linearZeros is the fewest zero registers that alone prove the
	// linear-counting range: the least z with alphaMM/z <= 2.5·m in
	// float arithmetic. Rounding is monotone, so invSum >= zeros >= z
	// gives alphaMM/invSum <= alphaMM/z <= 2.5·m.
	linearZeros int
	// linear[z] is m·ln(m/z), the linear-counting estimate at z zero
	// registers.
	linear []float64
}

// estimate returns the estimate of the counter w from its zero count,
// word OR and unit sum, bit for bit the textbook loop's (see
// Estimate). A zero register adds exactly 1 to invSum and every other
// term is positive, so invSum >= zeros; once zeros reaches linearZeros,
// est is at most 2.5·m without computing invSum, and the answer is the
// table's m·ln(m/zeros), built with the same expression. Otherwise
// invSum is the unit sum while every register is below 32 (the OR
// shows it), and the register-order loop when one is not.
//
// The unit sum is exact: with every register below 32, 2^-r is a whole
// number 2^(31-r) of units of 2^-31, and a counter's sum is at most
// 2^16 = 2^47 units. So is every partial sum of the register-order
// float loop, because a multiple of 2^-31 below 2^17 has at most 48
// significant bits. Both are the exact sum, so the conversion returns
// that loop's float bit for bit.
func (t *estTable) estimate(w []uint64, zeros int, or, units uint64) float64 {
	if zeros >= t.linearZeros {
		return t.linear[zeros]
	}
	var invSum float64
	if or&bit5or6 == 0 {
		invSum = float64(units) * 0x1p-31
	} else {
		invSum = sumBytewise(w)
	}
	m := float64(len(w) * 8)
	est := t.alphaMM / invSum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting is more accurate in the small range.
		return t.linear[zeros]
	}
	return est
}

// tables holds one estTable per register exponent, each built on first
// use: a b = 16 table is 512 KiB, which no run needs unless it counts
// with 2^16 registers.
var tables [17]struct {
	once sync.Once
	t    estTable
}

func tableFor(b uint) *estTable {
	e := &tables[b]
	e.once.Do(func() { e.t = newEstTable(1 << b) })
	return &e.t
}

func newEstTable(regs int) estTable {
	m := float64(regs)
	t := estTable{alphaMM: alpha(regs) * m * m, linear: make([]float64, regs+1)}
	for z := 1; z <= regs; z++ {
		t.linear[z] = m * math.Log(m/float64(z))
	}
	t.linearZeros = regs + 1
	for t.linearZeros > 1 && t.alphaMM/float64(t.linearZeros-1) <= 2.5*m {
		t.linearZeros--
	}
	return t
}

// alpha returns the HyperLogLog bias-correction constant for m
// registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Hash64 mixes a 64-bit input into a well-distributed 64-bit hash
// (the splitmix64 finalizer); seed decorrelates HyperANF runs, which
// each sampled world seeds from its own world seed.
func Hash64(x, seed uint64) uint64 {
	z := x + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
