// Package fp16 implements IEEE 754-2008 binary16 ("half precision")
// conversion. HCC-MF's "Transmitting FP16 Data" communication strategy
// (paper Section 3.4, Strategy 2) compresses feature matrices to half
// precision before they cross the worker↔server bus, halving traffic
// without hurting the convergence of bounded-scale rating data.
//
// The scalar conversions implement round-to-nearest-even, gradual underflow
// to subnormals, NaN payload preservation (quieting), and overflow to
// infinity — the same semantics as the hardware F16C instructions.
//
// The slice codec (EncodeSlice, DecodeSlice, RoundTripSlice and the wire
// forms built on them) has two tiers with the same bits. On amd64 hosts
// whose CPU has F16C and AVX and whose OS saves YMM state, a CPUID gate
// decided once at init runs VCVTPS2PH (imm8 0, round to nearest even) and
// VCVTPH2PS on 8 values per instruction, as the paper's AVX-accelerated
// codec does; a tail of fewer than 8 values takes the scalar conversion.
// Everywhere else (other architectures, -tags noasm, pre-F16C hosts) the
// portable tier runs: the scalar encode inlined into a loop, and a decode
// table filled once from ToFloat32.
package fp16

import "math"

// Bits16 is a raw IEEE 754 binary16 value: 1 sign, 5 exponent, 10 mantissa
// bits.
type Bits16 uint16

const (
	signMask16 = 0x8000
	expMask16  = 0x7c00
	manMask16  = 0x03ff

	expBias16 = 15
	expBias32 = 127
)

// Normal-range bounds of FromFloat32's fast path, as |f|'s FP32 bits: the
// smallest FP16 normal (2^-14) and 2^16, the first FP32 binade above FP16's
// largest (every value below it rounds to a finite half or, at the very
// top, carries into the Inf encoding exactly as the overflow case would).
const (
	normalLo32 = (expBias32 - expBias16 + 1) << 23
	normalHi32 = (expBias32 - expBias16 + 0x1f) << 23
)

// FromFloat32 converts an FP32 value to FP16 with round-to-nearest-even.
//
// One unsigned range check (normalRange) sends every input whose result is
// a normal half through integer rounding (roundNormal); zero, subnormal,
// overflow, Inf and NaN inputs take fromFloat32Rare.
func FromFloat32(f float32) Bits16 {
	b := math.Float32bits(f)
	if normalRange(b) {
		return roundNormal(b)
	}
	return fromFloat32Rare(b)
}

// normalRange reports whether the FP32 bits b convert to a normal binary16
// (or, at the very top, carry into Inf exactly as the overflow case would).
func normalRange(b uint32) bool {
	return b&^0x80000000-normalLo32 < normalHi32-normalLo32
}

// roundNormal converts FP32 bits inside normalRange: rebias the exponent
// (−112 binades), add 0xfff plus the lowest kept mantissa bit, and shift
// out the 13 dropped bits. The add is round-half-to-even on the dropped
// bits, and a mantissa carry walks into the exponent field by itself, up
// to and including the Inf encoding at the top of the range.
func roundNormal(b uint32) Bits16 {
	a := b &^ 0x80000000
	return Bits16(uint16(b>>16)&signMask16 | uint16((a-(expBias32-expBias16)<<23+0xfff+(a>>13)&1)>>13))
}

// fromFloat32Rare converts the inputs outside FromFloat32's normal range,
// from their FP32 bits.
func fromFloat32Rare(b uint32) Bits16 {
	sign := uint16(b>>16) & signMask16
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if man == 0 {
			return Bits16(sign | expMask16)
		}
		// Quiet the NaN and keep the top payload bits; ensure a non-zero
		// mantissa so the result stays a NaN.
		payload := uint16(man>>13) & manMask16
		return Bits16(sign | expMask16 | 0x0200 | payload)
	case exp == 0 && man == 0: // signed zero
		return Bits16(sign)
	}

	// Unbiased exponent of the FP32 value. Subnormal FP32 inputs are far
	// below the FP16 subnormal range, so they flush to signed zero via the
	// shift path below.
	e := exp - expBias32 + expBias16
	switch {
	case e >= 0x1f: // overflow → infinity
		return Bits16(sign | expMask16)
	case e >= -10: // subnormal range: shift the implicit bit in
		m := man | 0x800000
		shift := uint32(14 - e)
		sub := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && sub&1 == 1) {
			sub++ // may carry into the smallest normal, which is fine
		}
		return Bits16(sign | uint16(sub))
	default: // underflow → signed zero
		return Bits16(sign)
	}
}

// ToFloat32 converts an FP16 value to FP32 exactly (every binary16 value is
// representable in binary32).
func (h Bits16) ToFloat32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & manMask16)

	switch {
	case exp == 0x1f: // Inf or NaN
		if man == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7f800000 | 0x400000 | man<<13)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalise the mantissa.
		e := int32(0)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= manMask16
		exp32 := uint32(e + 1 - expBias16 + expBias32)
		return math.Float32frombits(sign | exp32<<23 | man<<13)
	default:
		exp32 := exp - expBias16 + expBias32
		return math.Float32frombits(sign | exp32<<23 | man<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func (h Bits16) IsNaN() bool {
	return h&expMask16 == expMask16 && h&manMask16 != 0
}

// IsInf reports whether h encodes ±infinity.
func (h Bits16) IsInf() bool {
	return h&expMask16 == expMask16 && h&manMask16 == 0
}

// MaxValue is the largest finite FP16 value (65504).
const MaxValue = 65504.0
