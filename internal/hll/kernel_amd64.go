package hll

// stepAVX2 is Step's kernel for counters of words words, a power of two
// of at least 16, over a list, banks and sources that Step and Add have
// checked. It writes each grown counter's Growth to out, which has room
// for one per listed vertex, and returns how many it wrote; a Growth's
// unit sum is the one scanWords returns given linearZeros.
//
//go:noescape
func stepAVX2(next, cur []uint64, words, linearZeros int, list []int32, start, offs []int, out []Growth) int
