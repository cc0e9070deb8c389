//go:build linux && amd64 && !noasm

package mf

import (
	"os"
	"strings"
	"testing"
)

// TestKernelGate checks the CPUID gate against the kernel's own view of
// the CPU. Both tiers compute the same bits, so a gate that wrongly falls
// back to the Go loops passes every golden; only this test sees it. If
// /proc/cpuinfo lists "avx" (the kernel clears it unless XCR0 enables YMM
// state) and "xsave" (the kernel turned XSAVE on, which is what CPUID's
// OSXSAVE bit reports), the gate must choose the VEX sweeps.
func TestKernelGate(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	has := func(flag string) bool {
		for _, f := range flags {
			if f == flag {
				return true
			}
		}
		return false
	}
	gate := vexSupported()
	if has("avx") && has("xsave") {
		if !gate || !useVEX || Kernel() != "vex" {
			t.Fatalf("cpuinfo lists avx and xsave, but vexSupported()=%v useVEX=%v Kernel()=%q", gate, useVEX, Kernel())
		}
		return
	}
	if !has("avx") && gate {
		t.Fatalf("cpuinfo lacks avx, but the gate chose the VEX sweeps")
	}
	t.Logf("cpuinfo flags lack avx or xsave: gate=%v, kernel %q", gate, Kernel())
}
