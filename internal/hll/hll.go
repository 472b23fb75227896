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
// a rank by 65-b <= 61 — and the word-at-a-time kernels (Union, Fold,
// Estimate's zero count) rely on that clear top bit, so no per-byte
// step can borrow or carry into the next register.
//
// On amd64 CPUs with AVX2 and POPCNT whose OS saves the YMM registers,
// counters of 16 words or more (b >= 7, HyperANF's default) take
// assembly kernels chosen once at package init: Union and Fold take
// the register maximum 32 bytes per VPMAXUB, and Estimate counts
// zeros, ORs the words and sums its exact integer units four registers
// per instruction. A byte maximum and an integer sum are exact, so
// both paths return the same registers and the same float bit for bit.
// Every other CPU, architecture and width runs the word-at-a-time Go
// code, which is the portable path and the kernels' test reference.
package hll

import (
	"math"
	"math/bits"
	"sync"

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
// share one flat bank (the layout HyperANF wants — one allocation for
// all vertices, reusable across runs, and Fold's source list). The
// slice length must be a power of two in [2, 8192], and every byte
// must be below 0x80 — true of a zeroed slice and of anything AddHash,
// CopyFrom, Union and Fold write into it.
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

// CopyFrom overwrites c's registers with src's. Counters must have
// equal size.
func (c Counter) CopyFrom(src Counter) {
	if len(c.w) != len(src.w) {
		panic("hll: copy between differently sized counters")
	}
	copy(c.w, src.w)
}

// Union folds other into c (register-wise max) and reports whether any
// register changed. Counters must have equal size.
func (c Counter) Union(other Counter) bool {
	if len(c.w) != len(other.w) {
		panic("hll: union of differently sized counters")
	}
	return fold(c.w, other.w, unionSource)
}

// unionSource is Union's one-element source list: other's words start
// at offset 0 of its own slice.
var unionSource = []int{0}

// Fold is Union over many sources in one pass: it folds into c every
// counter of bank that starts at a word offset in srcs, each c's size,
// and reports whether any register of c changed. The same sources in
// the same order through Union leave the same registers.
func (c Counter) Fold(bank []uint64, srcs []int) bool {
	return fold(c.w, bank, srcs)
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

// haveAVX2 reports whether this CPU runs the AVX2 kernels, which also
// use POPCNT.
var haveAVX2 = cpu.AVX2 && cpu.POPCNT

// useAVX2 selects the amd64 AVX2 kernels for counters of at least
// vectorWords words. It is set once, from the CPU, at package init;
// tests switch it to run both paths.
var useAVX2 = haveAVX2

// vectorWords is the fewest words a counter needs to take the AVX2
// kernels: one 128-byte block of foldAVX2, a counter of 2^7 registers.
const vectorWords = 16

// fold is Union and Fold's kernel. Where the CPU has AVX2, counters of
// vectorWords or more take foldAVX2, the same maxima 32 bytes per
// instruction, once every source offset is checked against bank: the
// assembly cannot bounds-check, so an offset the Go path would slice
// out of range panics here, before the kernel writes any word.
// Otherwise foldWords runs.
func fold(dst, bank []uint64, srcs []int) bool {
	bank = bank[:len(bank):len(bank)] // sources end within len, not cap
	if useAVX2 && len(dst) >= vectorWords {
		for _, o := range srcs {
			_ = bank[o : o+len(dst)]
		}
		return foldAVX2(dst, bank, srcs)
	}
	return foldWords(dst, bank, srcs)
}

// foldWords is fold's portable path and the AVX2 kernel's reference. It
// walks dst four words at a time, holding them in registers while
// every source's words fold in, so a word of dst is loaded and stored
// once however many sources there are; a counter of 16 registers has
// two words and takes the word-at-a-time tail alone. A maximum never
// falls, so dst grew exactly when some word's final maximum differs
// from its first value.
func foldWords(dst, bank []uint64, srcs []int) bool {
	var grew uint64
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		d := dst[k : k+4 : k+4]
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for _, o := range srcs {
			s := bank[o+k : o+k+4 : o+k+4]
			a0 = max7(a0, s[0])
			a1 = max7(a1, s[1])
			a2 = max7(a2, s[2])
			a3 = max7(a3, s[3])
		}
		grew |= (a0 ^ d[0]) | (a1 ^ d[1]) | (a2 ^ d[2]) | (a3 ^ d[3])
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	for ; k < len(dst); k++ {
		a := dst[k]
		for _, o := range srcs {
			a = max7(a, bank[o+k])
		}
		grew |= a ^ dst[k]
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
// It first counts the zero registers, eight per word. A zero register
// adds exactly 1 to invSum and every other term is positive, so
// invSum >= zeros; once zeros reaches the table's linearZeros, est is
// at most 2.5·m without computing invSum, and the answer is the
// table's m·ln(m/zeros), built with the same expression. Otherwise it
// sums invSum in exact integer units (sumUnits) while every register
// is below 32, and falls back to the register-order loop when one is
// not. Where the CPU has AVX2, counters of vectorWords or more take
// scanAVX2, which counts the zeros, ORs the words and sums the units
// in one pass over the registers.
func (c Counter) Estimate() float64 {
	t := tableFor(c.b)
	var zeros int
	var or, units uint64
	vector := useAVX2 && len(c.w) >= vectorWords
	if vector {
		zeros, or, units = scanAVX2(c.w)
	} else {
		for _, w := range c.w {
			// A byte below 0x80 plus 0x7F reaches the top bit
			// exactly when it is non-zero.
			zeros += bits.OnesCount64(^(w + lo7) & hi)
			or |= w
		}
	}
	if zeros >= t.linearZeros {
		return t.linear[zeros]
	}
	var invSum float64
	if or&bit5or6 == 0 {
		if !vector {
			units = sumUnits(c.w)
		}
		invSum = float64(units) * 0x1p-31
	} else {
		invSum = sumBytewise(c.w)
	}
	m := float64(len(c.w) * 8)
	est := t.alphaMM / invSum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting is more accurate in the small range.
		return t.linear[zeros]
	}
	return est
}

const (
	lo7     = 0x7F7F7F7F7F7F7F7F
	bit5or6 = 0x6060606060606060 // set in a byte exactly when it is >= 32
)

// sumUnits returns Σ 2^-r over the registers of w, all below 32, in
// units of 2^-31. Then 2^-r is a whole number 2^(31-r) of units, and a
// counter's sum is at most 2^16 = 2^47 units: the integer sum is
// exact, and so is every partial sum of the register-order float loop,
// because a multiple of 2^-31 below 2^17 has at most 48 significant
// bits. Both are the exact sum, so Estimate's conversion returns that
// loop's float bit for bit.
func sumUnits(w []uint64) uint64 {
	var units uint64
	for _, x := range w {
		units += unit[x&31] + unit[x>>8&31] + unit[x>>16&31] + unit[x>>24&31] +
			unit[x>>32&31] + unit[x>>40&31] + unit[x>>48&31] + unit[x>>56&31]
	}
	return units
}

// unit[r] is 2^-r in units of 2^-31.
var unit = func() (t [32]uint64) {
	for r := range t {
		t[r] = 1 << (31 - r)
	}
	return t
}()

// sumBytewise returns Σ 2^-r over the registers of w, added in
// register order — the textbook loop, and Estimate's fallback for a
// counter holding a register of 32 or more, where partial sums can
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
// returns and Estimate's sum is unchanged bit for bit.
var pow2neg = func() (t [256]float64) {
	for r := range t {
		t[r] = math.Exp2(-float64(r))
	}
	return t
}()

// estTable holds Estimate's per-size constants for counters of 2^b
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
// (the splitmix64 finalizer); seed decorrelates repeated ANF runs for
// jackknife error estimation.
func Hash64(x, seed uint64) uint64 {
	z := x + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
