//go:build amd64 && !noasm

package fp16

import "hccmf/internal/cpu"

// useF16C is the CPUID gate, decided once at package init: the F16C
// conversions in f16c_amd64.s run only on a host whose CPU has F16C and
// AVX and whose OS saves the YMM registers (cpu.F16C). Every other amd64
// host runs the portable loops, which give the same bits (DESIGN.md §15).
var useF16C = cpu.F16C

// encodeF16C converts src into dst with VCVTPS2PH, imm8 0 (round to
// nearest even), 8 values per instruction (f16c_amd64.s). len(src) is a
// multiple of 8 and len(dst) == len(src).
//
//go:noescape
func encodeF16C(dst []Bits16, src []float32)

// decodeF16C expands src into dst with VCVTPH2PS, 8 values per
// instruction (f16c_amd64.s). len(src) is a multiple of 8 and
// len(dst) == len(src).
//
//go:noescape
func decodeF16C(dst []float32, src []Bits16)

// roundTripF16C sets dst to src's FP32→FP16→FP32 round trip, both
// conversions in registers (f16c_amd64.s). len(src) is a multiple of 8,
// len(dst) == len(src), and dst may be src.
//
//go:noescape
func roundTripF16C(dst, src []float32)

// encodeSlice converts the 8-value blocks of src with F16C when the gate
// is on, and the rest (or all of it) with the scalar conversion.
func encodeSlice(dst []Bits16, src []float32) {
	n := 0
	if useF16C {
		n = len(src) &^ 7
		encodeF16C(dst[:n], src[:n])
	}
	encodeGeneric(dst[n:], src[n:])
}

// decodeSlice converts the 8-value blocks of src with F16C when the gate
// is on and its tail with ToFloat32, so an F16C host never builds the
// decode table; with the gate off it is the table decode.
func decodeSlice(dst []float32, src []Bits16) {
	if !useF16C {
		decodeGeneric(dst, src)
		return
	}
	n := len(src) &^ 7
	decodeF16C(dst[:n], src[:n])
	for i, h := range src[n:] {
		dst[n+i] = h.ToFloat32()
	}
}

// roundTripSlice round-trips the 8-value blocks of src in registers when
// the gate is on, with no stack stage, and its tail with the scalar
// conversions; with the gate off it is the staged portable round trip.
func roundTripSlice(dst, src []float32) {
	if !useF16C {
		roundTripGeneric(dst, src)
		return
	}
	n := len(src) &^ 7
	roundTripF16C(dst[:n], src[:n])
	for i, v := range src[n:] {
		dst[n+i] = FromFloat32(v).ToFloat32()
	}
}
