//go:build amd64 && !noasm

package mf

import (
	"testing"

	"hccmf/internal/cpu"
)

// TestKernelGate checks that the sweep tier is the shared CPUID probe's
// answer. Both tiers compute the same bits, so a gate that wrongly falls
// back to the Go loops passes every golden; only this test and the cpu
// package's TestProbeMatchesCPUInfo, which holds the probe to the kernel's
// own view of the CPU, see it.
func TestKernelGate(t *testing.T) {
	want := "go"
	if cpu.AVX {
		want = "vex"
	}
	if useVEX != cpu.AVX || Kernel() != want {
		t.Fatalf("cpu.AVX=%v, but useVEX=%v Kernel()=%q", cpu.AVX, useVEX, Kernel())
	}
}
