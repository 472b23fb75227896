//go:build !amd64

package hll

// haveAVX2 is false off amd64, so this stub is never called.
func stepAVX2(next, cur []uint64, words, linearZeros int, list []int32, start, offs []int, out []Growth) int {
	panic("hll: no AVX2 kernel on this architecture")
}
