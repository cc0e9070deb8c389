// Package cpu probes, once at package init, the x86 features that the
// repository's assembly tiers need: AVX for internal/mf's VEX rating
// sweeps and F16C for internal/fp16's binary16 conversion. Each tier
// keeps its own gate variable, initialised from these, and falls back to
// its portable Go loop where the feature is missing, on every other
// architecture and under -tags noasm (DESIGN.md §15–16).
package cpu

// CPUID.1:ECX feature bits.
const (
	ecxF16C    = 1 << 29
	ecxAVX     = 1 << 28
	ecxOSXSAVE = 1 << 27
)

// AVX reports that the CPU has AVX and the OS saves XMM and YMM state:
// CPUID.1:ECX AVX and OSXSAVE, then XCR0 bits 1–2. Nothing here needs
// AVX2, so CPUID.7 is not consulted.
var AVX = hasFeatures(ecxAVX | ecxOSXSAVE)

// F16C reports that the CPU has the F16C conversions (VCVTPS2PH and
// VCVTPH2PS) and AVX, and that the OS saves YMM state: CPUID.1:ECX F16C,
// AVX and OSXSAVE, then XCR0 bits 1–2.
var F16C = hasFeatures(ecxF16C | ecxAVX | ecxOSXSAVE)

// hasFeatures reports whether CPUID.1:ECX has every bit of ecxBits and
// XCR0 enables XMM and YMM state. ecxBits must include OSXSAVE, without
// which XGETBV faults.
func hasFeatures(ecxBits uint32) bool {
	if !haveCPUID {
		return false
	}
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&ecxBits != ecxBits {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}
