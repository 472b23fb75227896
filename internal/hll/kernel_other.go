//go:build !amd64

package hll

// haveAVX2 is false off amd64, so these stubs are never called.
func foldAVX2(dst, bank []uint64, srcs []int) bool {
	panic("hll: no AVX2 kernel on this architecture")
}

func scanAVX2(w []uint64) (zeros int, or, units uint64) {
	panic("hll: no AVX2 kernel on this architecture")
}
