package cpufeat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestMatchesProcCPUInfo: on Linux/amd64 the probe agrees with the kernel's
// view of the first CPU (its "flags" line lists avx and avx2 only when the
// CPU has them and the kernel saves the YMM state).
func TestMatchesProcCPUInfo(t *testing.T) {
	if AVX2 && !AVX {
		t.Fatal("AVX2 without AVX")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("/proc/cpuinfo flags are read on linux/amd64 only")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		flags := strings.Fields(value)
		if want := slices.Contains(flags, "avx"); AVX != want {
			t.Errorf("AVX = %v, /proc/cpuinfo lists avx: %v", AVX, want)
		}
		if want := slices.Contains(flags, "avx2"); AVX2 != want {
			t.Errorf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
