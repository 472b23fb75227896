package hll

// haveAVX2 reports whether this CPU runs the AVX2 kernels: it has
// AVX2 and POPCNT, and the OS saves the YMM registers across context
// switches (OSXSAVE set, XCR0 enabling both SSE and AVX state).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
