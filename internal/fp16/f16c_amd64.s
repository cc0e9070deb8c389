//go:build !noasm

// F16C binary16 conversion (DESIGN.md §15). VCVTPS2PH with imm8 0 rounds
// to nearest even whatever MXCSR says, quiets NaNs keeping their top
// payload bits, produces subnormal halves and overflows to infinity: the
// semantics of the scalar FromFloat32. VCVTPH2PS is exact. Each function
// takes slices whose length is a multiple of 8; the Go wrappers in
// f16c_amd64.go convert the tail with the scalar code. The CPUID gate
// (useF16C) keeps these off hosts without F16C, AVX or OS-saved YMM
// state.

#include "textflag.h"

// func encodeF16C(dst []Bits16, src []float32)
TEXT ·encodeF16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	JZ   encDone

encLoop4:
	CMPQ      CX, $4
	JB        encLoop1
	VMOVUPS   (SI), Y0
	VMOVUPS   32(SI), Y1
	VMOVUPS   64(SI), Y2
	VMOVUPS   96(SI), Y3
	VCVTPS2PH $0, Y0, (DI)
	VCVTPS2PH $0, Y1, 16(DI)
	VCVTPS2PH $0, Y2, 32(DI)
	VCVTPS2PH $0, Y3, 48(DI)
	ADDQ      $128, SI
	ADDQ      $64, DI
	SUBQ      $4, CX
	JMP       encLoop4

encLoop1:
	TESTQ     CX, CX
	JZ        encDone
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      CX
	JMP       encLoop1

encDone:
	VZEROUPPER
	RET

// func decodeF16C(dst []float32, src []Bits16)
TEXT ·decodeF16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	JZ   decDone

decLoop4:
	CMPQ      CX, $4
	JB        decLoop1
	VCVTPH2PS (SI), Y0
	VCVTPH2PS 16(SI), Y1
	VCVTPH2PS 32(SI), Y2
	VCVTPH2PS 48(SI), Y3
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, 32(DI)
	VMOVUPS   Y2, 64(DI)
	VMOVUPS   Y3, 96(DI)
	ADDQ      $64, SI
	ADDQ      $128, DI
	SUBQ      $4, CX
	JMP       decLoop4

decLoop1:
	TESTQ     CX, CX
	JZ        decDone
	VCVTPH2PS (SI), Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JMP       decLoop1

decDone:
	VZEROUPPER
	RET

// func roundTripF16C(dst, src []float32)
// Each block is read whole before it is written, so dst may be src.
TEXT ·roundTripF16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	JZ   rtDone

rtLoop:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       rtLoop

rtDone:
	VZEROUPPER
	RET
