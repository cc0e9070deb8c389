//go:build linux && amd64 && !noasm

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo checks the probe against the kernel's own view
// of the CPU. Every assembly tier computes the bits of its portable
// fallback, so a probe that wrongly reads false passes every golden; only
// this test sees it. /proc/cpuinfo lists "avx" only when XCR0 enables YMM
// state, and "xsave" when the kernel turned XSAVE on, which is what
// CPUID's OSXSAVE bit reports. A listed feature must be probed, and one
// whose flag is missing must not be.
func TestProbeMatchesCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(value) {
				flags[f] = true
			}
			break
		}
	}
	for _, c := range []struct {
		name  string
		probe bool
		flag  string // the feature's own flag: without it the probe must read false
		needs []string
	}{
		{"AVX", AVX, "avx", []string{"avx", "xsave"}},
		{"F16C", F16C, "f16c", []string{"f16c", "avx", "xsave"}},
	} {
		listed := true
		for _, f := range c.needs {
			listed = listed && flags[f]
		}
		switch {
		case listed && !c.probe:
			t.Errorf("/proc/cpuinfo lists %v, but %s = false", c.needs, c.name)
		case !flags[c.flag] && c.probe:
			t.Errorf("/proc/cpuinfo lacks %q, but %s = true", c.flag, c.name)
		}
	}
	if F16C && !AVX {
		t.Errorf("F16C = true without AVX")
	}
}
