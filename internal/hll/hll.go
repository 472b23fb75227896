// Package hll implements HyperLogLog cardinality counters with
// register-wise union — the primitive underlying HyperANF
// (Boldi–Rosa–Vigna, WWW'11), which the paper uses to estimate distance
// distributions on large graphs (§6.3).
//
// A counter with 2^b byte registers estimates set cardinality with
// relative standard deviation ~1.04/sqrt(2^b); unions are exact
// (register-wise max), which is what makes the ANF iteration sound.
package hll

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Counter is a HyperLogLog sketch. The zero value is unusable; create
// counters with New.
type Counter struct {
	reg []byte
	b   uint
}

// New returns a counter with 2^b registers, 4 <= b <= 16.
func New(b int) Counter {
	if b < 4 || b > 16 {
		panic("hll: register exponent must be in [4, 16]")
	}
	return Counter{reg: make([]byte, 1<<b), b: uint(b)}
}

// RegisterCount returns the number of registers of a counter with
// exponent b — the per-counter slice size FromRegisters expects.
func RegisterCount(b int) int {
	if b < 4 || b > 16 {
		panic("hll: register exponent must be in [4, 16]")
	}
	return 1 << b
}

// FromRegisters wraps an externally allocated register slice as a
// counter without copying: the caller owns the memory, so many
// counters can share one flat backing array (the layout HyperANF wants
// — one allocation for all vertices, reusable across runs). The slice
// length must be a power of two in [16, 65536], and every register
// must be below 0x80 — true of a zeroed slice and of anything AddHash,
// CopyFrom and Union write into it — because Union's broadword maximum
// relies on it.
func FromRegisters(reg []byte) Counter {
	n := len(reg)
	if n == 0 || n&(n-1) != 0 {
		panic("hll: register slice length must be a power of two")
	}
	b := uint(bits.TrailingZeros(uint(n)))
	if b < 4 || b > 16 {
		panic("hll: register exponent must be in [4, 16]")
	}
	return Counter{reg: reg, b: b}
}

// Clone returns an independent copy.
func (c Counter) Clone() Counter {
	out := Counter{reg: make([]byte, len(c.reg)), b: c.b}
	copy(out.reg, c.reg)
	return out
}

// AddHash inserts an element represented by a 64-bit hash. Use a
// high-quality hash (see Hash64) — register index and rank are both
// carved from it.
func (c Counter) AddHash(h uint64) {
	idx := h >> (64 - c.b)
	rest := h<<c.b | 1<<(c.b-1) // guard bit bounds the rank
	rank := byte(bits.LeadingZeros64(rest)) + 1
	if rank > c.reg[idx] {
		c.reg[idx] = rank
	}
}

// CopyFrom overwrites c's registers with src's. Counters must have
// equal size.
func (c Counter) CopyFrom(src Counter) {
	if len(c.reg) != len(src.reg) {
		panic("hll: copy between differently sized counters")
	}
	copy(c.reg, src.reg)
}

// Union folds other into c (register-wise max) and reports whether any
// register changed. Counters must have equal size.
//
// The maximum is taken broadword, eight registers per uint64 word (a
// counter has a power of two >= 16 registers, so it is whole words).
// It relies on the invariant that every register is below 0x80:
// AddHash's guard bit bounds a rank by 65-b <= 61. With hi = 0x80 in
// every byte, ((a|hi) - b) & hi then cannot borrow across bytes, and
// its byte is 0x80 exactly where a >= b — the same choice the bytewise
// loop makes.
func (c Counter) Union(other Counter) bool {
	if len(c.reg) != len(other.reg) {
		panic("hll: union of differently sized counters")
	}
	const hi = 0x8080808080808080
	changed := false
	dst, src := c.reg, other.reg
	for len(dst) >= 8 && len(src) >= 8 {
		a := binary.LittleEndian.Uint64(dst)
		b := binary.LittleEndian.Uint64(src)
		if lt := ^((a | hi) - b) & hi; lt != 0 {
			take := (lt >> 7) * 0xFF // 0xFF in every byte where a < b
			binary.LittleEndian.PutUint64(dst, a&^take|b&take)
			changed = true
		}
		dst, src = dst[8:], src[8:]
	}
	return changed
}

// Estimate returns the cardinality estimate with the standard bias
// correction and the small-range (linear counting) correction.
func (c Counter) Estimate() float64 {
	m := float64(len(c.reg))
	var invSum float64
	zeros := 0
	for _, r := range c.reg {
		invSum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(c.reg)) * m * m / invSum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting is more accurate in the small range.
		return m * math.Log(m/float64(zeros))
	}
	return est
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
