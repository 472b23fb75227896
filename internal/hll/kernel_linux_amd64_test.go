package hll

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2SelectedWhereCPUHasIt requires the AVX2 kernels to be
// selected whenever the kernel's CPU flags list avx2 and popcnt: a
// detection bug would otherwise drop every HyperANF run to the Go path
// without failing anything else.
func TestAVX2SelectedWhereCPUHasIt(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading the CPU flags: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		f := strings.Fields(flags)
		if !slices.Contains(f, "avx2") || !slices.Contains(f, "popcnt") {
			t.Skip("the CPU flags do not list avx2 and popcnt")
		}
		if !haveAVX2 || !useAVX2 {
			t.Fatalf("the CPU flags list avx2 and popcnt, but hll selected the Go path (haveAVX2 %v, useAVX2 %v)", haveAVX2, useAVX2)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
