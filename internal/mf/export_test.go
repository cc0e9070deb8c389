package mf

import "testing"

// GridSide exposes gridSide to the external oracle test.
var GridSide = gridSide

// forEachTier runs fn as a subtest once per sweep tier this process can
// run: "go", the portable loops, always, then "vex" when the CPUID gate
// chose the assembly sweeps. It forces the tier through useVEX and
// restores the gate's choice afterwards, so both tiers are checked in
// one process on a VEX host. Callers must not run in parallel.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	gate := useVEX
	defer func() { useVEX = gate }()
	tiers := []bool{false}
	if gate {
		tiers = append(tiers, true)
	}
	for _, vex := range tiers {
		useVEX = vex
		t.Run(Kernel(), fn)
	}
}
