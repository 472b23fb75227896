//go:build !amd64

package randx

// useAVX2 is false off amd64, so these stubs are never called.
func seedAVX2(vec *[rngLen]int64, x uint64) {
	panic("randx: no AVX2 kernel on this architecture")
}

func coinsAVX2(feed, tap []int64, out []bool, th []uint64) (high uint64) {
	panic("randx: no AVX2 kernel on this architecture")
}
