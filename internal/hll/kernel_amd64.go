package hll

// foldAVX2 is fold for a dst of a power of two of at least 16 words
// whose every source lies inside bank.
//
//go:noescape
func foldAVX2(dst, bank []uint64, srcs []int) bool

// scanAVX2 returns the zero-register count of w, the OR of its words
// and Σ 2^(31-r) over its registers, counting 0 for r >= 32; len(w) is
// a positive multiple of four.
//
//go:noescape
func scanAVX2(w []uint64) (zeros int, or, units uint64)
