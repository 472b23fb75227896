package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDetectsWhatCPUFlagsList requires AVX2 and POPCNT to be detected
// whenever the kernel's CPU flags list them: a detection bug would
// otherwise drop every HyperANF run and every sampled world to the Go
// paths without failing anything else.
func TestDetectsWhatCPUFlagsList(t *testing.T) {
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
		if slices.Contains(f, "avx2") && !AVX2 {
			t.Error("the CPU flags list avx2, but AVX2 is false")
		}
		if slices.Contains(f, "popcnt") && !POPCNT {
			t.Error("the CPU flags list popcnt, but POPCNT is false")
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
