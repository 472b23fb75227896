// Package cpu reports the x86 instruction-set extensions that the
// repository's assembly kernels need, probed once at package init from
// CPUID and XGETBV. The kernel packages (hll, randx) select their AVX2
// paths from these values; off amd64 every value is the constant
// false, so they take their Go paths and never call their !amd64
// stubs.
package cpu
