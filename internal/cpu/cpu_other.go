//go:build !amd64

package cpu

// AVX2 and POPCNT are false off amd64, where no kernel is assembled.
const AVX2, POPCNT = false, false
