package randx

import "math"

// Float64 divides a draw's Int63 v by 2⁶³ and draws again when the
// quotient rounds to 1, which happens exactly when v >= redrawAt.
const redrawAt = 1<<63 - 1<<9

// thresholdWindow bounds how far below ⌈p·2⁶³⌉ a coin threshold lies:
// rounding a 63-bit integer to a float64 moves it by at most 2⁹.
const thresholdWindow = 1 << 10

// CoinThreshold returns the least 63-bit v whose Float64 quotient
// v/2⁶³ is at least p. The quotient is monotone in v, so for a draw
// Float64 keeps (v < 2⁶³−2⁹) the coin Float64() < p is exactly
// v < CoinThreshold(p). It is defined for p in [0, 1]; pairs with
// 0 < p < 1 are the ones that draw a coin.
//
// The search runs over the window [⌈p·2⁶³⌉−2¹⁰, ⌈p·2⁶³⌉]: p·2⁶³ is
// exact, the quotient of ⌈p·2⁶³⌉ is at least p, and any v more than
// 2⁹ below p·2⁶³ rounds to a float64 still below it.
func CoinThreshold(p float64) uint64 {
	hi := uint64(math.Ceil(p * (1 << 63)))
	lo := hi - min(hi, thresholdWindow)
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

// Coins draws len(present) coins from the stream Float64 reads:
// present[i] = v < th[i], where v is the Int63 of the source's next
// draw. With th[i] = CoinThreshold(p_i), present[i] is exactly the
// coin Float64() < p_i, unless one of the draws is one that Float64
// discards and redraws (v >= 2⁶³−2⁹, about one draw in 2⁵⁴). Coins
// reports whether that happened; if so, the coins from that draw on
// are not Float64's, and the caller redraws them through Float64 from
// the same starting state. Either way Coins consumes exactly
// len(present) draws, so a caller may split one pass over many pairs
// into several calls and the stream continues across them.
//
// The draws run as straight loops without an index wrap: register
// feed−1−j takes the sum of itself and register tap−1−j until either
// index reaches 0. After a reseed that is one 607-draw cycle in two
// half-cycles: 334 draws that update registers 333…0, each from
// register i+273, then 273 that update registers 606…334, each from
// register i−334. Every register a draw reads was written before its
// half-cycle or earlier in it, at least 273 draws back, so the loop
// runs in stream order. On the Go path each coin is one compare and a
// SETcc store. Where the CPU has AVX2, an assembly kernel draws four
// coins per step, which reads what the scalar loop reads since no draw
// depends on the 272 before it, and the Go loop draws each straight
// run's last len mod 4. On both paths the redraw check ORs, over every
// draw, a word whose top bit is set when v >= 2⁶³−2⁹, so no branch
// depends on a draw.
func (s *Source) Coins(present []bool, th []uint64) (redraw bool) {
	th = th[:len(present)]
	var high uint64
	for len(present) > 0 {
		// An index at 0 wraps: its next draw uses register 606.
		if s.feed == 0 {
			s.feed = rngLen
		}
		if s.tap == 0 {
			s.tap = rngLen
		}
		k := min(s.feed, s.tap, len(present))
		high |= coinStretch(s.vec[s.feed-k:s.feed], s.vec[s.tap-k:s.tap], present[:k], th[:k])
		s.feed -= k
		s.tap -= k
		present, th = present[k:], th[k:]
	}
	return high>>63 != 0
}

// coinStretch draws len(out) coins in one straight stretch of the stream:
// draw j adds register tap[k−1−j] into feed[k−1−j] and compares the
// sum's low 63 bits with th[j]. It returns the OR of 2⁶³−2⁹−1−v over
// the draws, whose top bit is set when some v would make Float64
// redraw. Where the CPU has AVX2, coinsAVX2 draws all but the last
// len(out) mod 4 coins, and the loop below only those. It stays out of
// line: inlined into Coins, its loop spills three values to the stack
// per draw.
//
//go:noinline
func coinStretch(feed, tap []int64, out []bool, th []uint64) (high uint64) {
	feed = feed[:len(out)]
	tap = tap[:len(out)]
	th = th[:len(out)]
	if n := len(out) &^ 3; useAVX2 && n > 0 {
		k := len(out)
		high = coinsAVX2(feed[k-n:], tap[k-n:], out[:n], th[:n])
		feed, tap, out, th = feed[:k-n], tap[:k-n], out[n:], th[n:]
	}
	for j := range out {
		i := len(out) - 1 - j
		x := feed[i] + tap[i]
		feed[i] = x
		v := uint64(x) & rngMask
		out[j] = v < th[j]
		high |= redrawAt - 1 - v
	}
	return high
}
