package cpu

// AVX2 reports whether this CPU runs AVX2 code: it has AVX2, and the
// OS saves the YMM registers across context switches (OSXSAVE set,
// XCR0 enabling both SSE and AVX state). POPCNT reports whether it has
// the POPCNT instruction.
var AVX2, POPCNT = detect()

func detect() (avx2, popcnt bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	popcnt = ecx1&(1<<23) != 0
	const osxsave, avx = 1 << 27, 1 << 28
	if maxID < 7 || ecx1&(osxsave|avx) != osxsave|avx {
		return false, popcnt
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, popcnt
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0, popcnt
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
