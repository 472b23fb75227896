package randx

// seedAVX2 sets vec[:604], the first rngLen &^ 3 words of a register
// reseeded from the reduced seed x in [1, 2³¹−1), as Seed's loop does.
//
//go:noescape
func seedAVX2(vec *[rngLen]int64, x uint64)

// coinsAVX2 is coinStretch's loop for a len(out) that is a positive
// multiple of four, with feed, tap and th as long as out; it draws
// four coins per step and returns the same redraw OR.
//
//go:noescape
func coinsAVX2(feed, tap []int64, out []bool, th []uint64) (high uint64)
