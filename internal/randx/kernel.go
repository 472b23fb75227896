package randx

import "uncertaingraph/internal/cpu"

// useAVX2 selects the amd64 AVX2 kernels for Source.Seed and
// Source.Coins. It is set once, from the CPU, at package init; only
// tests switch it, through EachKernel.
var useAVX2 = cpu.AVX2

// EachKernel calls f once per path this CPU runs Seed and Coins on,
// with that path selected: the portable Go path, then the AVX2 kernels
// where the CPU has them. It restores the selection afterwards. It
// exists for the tests that pin both paths, here and in the samplers;
// nothing else calls it, and nothing may draw concurrently with it.
func EachKernel(f func(kernel string)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx := range []bool{false, true} {
		if avx && !cpu.AVX2 {
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
