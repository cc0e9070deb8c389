//go:build !noasm

// VEX rating sweeps (DESIGN.md §16). Go has no float32 auto-vectorizer,
// so the amd64 build hand-vectorizes its two per-rating loops with
// 8-lane AVX (VMOVUPS / VMULPS / VADDPS / VEXTRACTF128 on YMM registers).
// They use no AVX2, FMA or AVX-512 instruction, so the CPUID gate in
// update_amd64.go checks for AVX and OS-enabled YMM state only; a host
// that fails it runs the portable Go loops instead:
//
//   - sgdSweep is the SGD kernel: the TrainEntries loop, walking
//     []sparse.Rating itself instead of taking one Go call per rating.
//     UpdateOne is its one-entry case.
//   - sqErrSweep is the sumSqErr loop behind RMSE and RMSEParallel.
//
// Both read each 12-byte record as U int32 at +0, I int32 at +4 and
// V float32 at +8 (pinned by TestRatingLayout). A record whose U or I is
// negative or not below the row count stops the sweep before any factor
// memory is touched for it; the sweep returns how many records it
// finished and the Go wrapper panics for the first one it did not.
//
// Both are bit-identical to the Go loops (updateOneGeneric /
// referenceUpdateOne, sumSqErrGeneric) for EVERY k:
//
//   - The dot accumulates into one XMM register whose four lanes are
//     exactly the scalar kernel's four partial sums (lane j gets
//     elements j, j+4, j+8, …). Each 8-float step multiplies into a YMM
//     register and adds its LOW half into the accumulator, then its HIGH
//     half, so elements i..i+3 land before i+4..i+7 in every lane. A
//     leftover 4-float group adds as one XMM step, and the scalar tail
//     adds into lane 0, which is where the scalar kernel's tail goes (s0).
//   - The horizontal reduction is the ordered fold ((s0+s1)+s2)+s3 via
//     VPSHUFD lane extracts + VADDSS — NOT VHADDPS, whose pairing would
//     change the summation order. VADDSS takes lanes 1–3 from its first
//     source, so they still hold s1..s3 for the next extract.
//   - No FMA: every product is rounded before its add, as in Go.
//   - The update pass is element-independent, so it runs 8 lanes wide,
//     then one 4-lane group, then scalars. Every multiply and add keeps
//     its two operands; only their order may differ (ge·q + p rather
//     than p + ge·q). IEEE-754 add and multiply are commutative on the
//     bit level, so the rounded results are the same.
//   - sqErrSweep forms d = V − dot in float32, converts it exactly with
//     VCVTSS2SD and accumulates sum += d·d in float64 in input order.
//
// Every loop advances one index register CX: the 8-lane loops run a
// negative byte index up to zero against row pointers that point past
// the 8-lane part, and the 4-lane group and 1–3-element tail run it on
// from zero to R13, the bytes after that part. Both sweeps end with
// VZEROUPPER so no dirty upper YMM state reaches SSE code.

#include "textflag.h"

// func sgdSweep(p, q []float32, k, pRows, qRows int, entries []sparse.Rating, h HyperParams) (n int, e float32)
//
// ABI0 frame (asmdecl-checked): p+0 q+24 k+48 pRows+56 qRows+64
// entries+72 h_Gamma+96 h_Lambda1+100 h_Lambda2+104 / n+112 e+120.
TEXT ·sgdSweep(SB), NOSPLIT, $0-124
	MOVQ p_base+0(FP), R8
	MOVQ q_base+24(FP), R9
	MOVQ k+48(FP), R12
	SHLQ $2, R12
	MOVQ R12, DX
	ANDQ $-32, DX
	MOVQ R12, R13
	SUBQ DX, R13
	MOVQ entries_base+72(FP), R10
	XORQ R11, R11
	// γ, γλ1 and γλ2 in every lane once per sweep (Y12, Y10, Y11): each
	// lane's product is the scalar γ·λ, rounded once.
	VBROADCASTSS h_Gamma+96(FP), Y12
	VBROADCASTSS h_Lambda1+100(FP), Y10
	VMULPS       Y12, Y10, Y10
	VBROADCASTSS h_Lambda2+104(FP), Y11
	VMULPS       Y12, Y11, Y11
	VXORPS       X3, X3, X3

entry:
	// Record R11: bounds-check U and I (an out-of-range row ends the
	// sweep before any store), X3 = V, SI/DI = p/q rows past their 8-lane
	// part, X0 = the dot product's four lanes.
	CMPQ R11, entries_len+80(FP)
	JEQ  done
	LEAQ    (R11)(R11*2), AX
	LEAQ    (R10)(AX*4), BX
	MOVLQSX 0(BX), AX
	CMPQ    AX, pRows+56(FP)
	JAE     done
	MOVLQSX 4(BX), CX
	CMPQ    CX, qRows+64(FP)
	JAE     done
	VMOVSS  8(BX), X3
	IMULQ   R12, AX
	IMULQ   R12, CX
	LEAQ    (R8)(AX*1), SI
	ADDQ    DX, SI
	LEAQ    (R9)(CX*1), DI
	ADDQ    DX, DI
	VXORPS  X0, X0, X0
	MOVQ    DX, CX
	NEGQ    CX
	JZ      dot4

dotloop:
	VMOVUPS      (SI)(CX*1), Y1
	VMULPS       (DI)(CX*1), Y1, Y1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y1, X1
	VADDPS       X1, X0, X0
	ADDQ         $32, CX
	JNZ          dotloop

dot4:
	CMPQ R13, $16
	JLT  dottail
	VMOVUPS (SI), X1
	VMULPS  (DI), X1, X1
	VADDPS  X1, X0, X0
	MOVQ    $16, CX

dottail:
	CMPQ CX, R13
	JEQ  reduce

dottailloop:
	VMOVSS (SI)(CX*1), X1
	VMULSS (DI)(CX*1), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, CX
	CMPQ   CX, R13
	JNE    dottailloop

reduce:
	// Ordered fold ((s0+s1)+s2)+s3 into lane 0, then V − dot.
	VPSHUFD $0x55, X0, X1
	VADDSS  X1, X0, X0
	VPSHUFD $0xaa, X0, X1
	VADDSS  X1, X0, X0
	VPSHUFD $0xff, X0, X1
	VADDSS  X1, X0, X0
	VSUBSS  X0, X3, X3
	// X3 = e = r − dot; Y5 = ge = e·γ in every lane.
	VSHUFPS     $0x0, X3, X3, X5
	VINSERTF128 $1, X5, Y5, Y5
	VMULPS      Y12, Y5, Y5
	MOVQ        DX, CX
	NEGQ        CX
	JZ          upd4

updloop:
	// p' = (p + ge·q) − gl1·p ; q' = (q + ge·p) − gl2·q, eight lanes at
	// a time with the pre-update p in q's gradient.
	VMOVUPS (SI)(CX*1), Y1
	VMOVUPS (DI)(CX*1), Y2
	VMULPS  Y5, Y2, Y7
	VADDPS  Y1, Y7, Y7
	VMULPS  Y10, Y1, Y6
	VSUBPS  Y6, Y7, Y7
	VMULPS  Y5, Y1, Y1
	VADDPS  Y2, Y1, Y1
	VMULPS  Y11, Y2, Y2
	VSUBPS  Y2, Y1, Y1
	VMOVUPS Y7, (SI)(CX*1)
	VMOVUPS Y1, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     updloop

upd4:
	CMPQ R13, $16
	JLT  updtail
	VMOVUPS (SI), X1
	VMOVUPS (DI), X2
	VMULPS  X5, X2, X7
	VADDPS  X1, X7, X7
	VMULPS  X10, X1, X6
	VSUBPS  X6, X7, X7
	VMULPS  X5, X1, X1
	VADDPS  X2, X1, X1
	VMULPS  X11, X2, X2
	VSUBPS  X2, X1, X1
	VMOVUPS X7, (SI)
	VMOVUPS X1, (DI)
	MOVQ    $16, CX

updtail:
	CMPQ CX, R13
	JEQ  next

updtailloop:
	VMOVSS (SI)(CX*1), X1
	VMOVSS (DI)(CX*1), X2
	VMULSS X5, X2, X7
	VADDSS X1, X7, X7
	VMULSS X10, X1, X6
	VSUBSS X6, X7, X7
	VMULSS X5, X1, X1
	VADDSS X2, X1, X1
	VMULSS X11, X2, X2
	VSUBSS X2, X1, X1
	VMOVSS X7, (SI)(CX*1)
	VMOVSS X1, (DI)(CX*1)
	ADDQ   $4, CX
	CMPQ   CX, R13
	JNE    updtailloop

next:
	INCQ R11
	JMP  entry

done:
	MOVQ   R11, n+112(FP)
	VMOVSS X3, e+120(FP)
	VZEROUPPER
	RET

// func sqErrSweep(p, q []float32, k, pRows, qRows int, entries []sparse.Rating) (sum float64, n int)
//
// ABI0 frame (asmdecl-checked): p+0 q+24 k+48 pRows+56 qRows+64
// entries+72 / sum+96 n+104.
TEXT ·sqErrSweep(SB), NOSPLIT, $0-112
	MOVQ p_base+0(FP), R8
	MOVQ q_base+24(FP), R9
	MOVQ k+48(FP), R12
	SHLQ $2, R12
	MOVQ R12, DX
	ANDQ $-32, DX
	MOVQ R12, R13
	SUBQ DX, R13
	MOVQ entries_base+72(FP), R10
	XORQ R11, R11
	VXORPD X8, X8, X8

entry:
	CMPQ R11, entries_len+80(FP)
	JEQ  done
	LEAQ    (R11)(R11*2), AX
	LEAQ    (R10)(AX*4), BX
	MOVLQSX 0(BX), AX
	CMPQ    AX, pRows+56(FP)
	JAE     done
	MOVLQSX 4(BX), CX
	CMPQ    CX, qRows+64(FP)
	JAE     done
	VMOVSS  8(BX), X3
	IMULQ   R12, AX
	IMULQ   R12, CX
	LEAQ    (R8)(AX*1), SI
	ADDQ    DX, SI
	LEAQ    (R9)(CX*1), DI
	ADDQ    DX, DI
	VXORPS  X0, X0, X0
	MOVQ    DX, CX
	NEGQ    CX
	JZ      dot4

dotloop:
	VMOVUPS      (SI)(CX*1), Y1
	VMULPS       (DI)(CX*1), Y1, Y1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y1, X1
	VADDPS       X1, X0, X0
	ADDQ         $32, CX
	JNZ          dotloop

dot4:
	CMPQ R13, $16
	JLT  dottail
	VMOVUPS (SI), X1
	VMULPS  (DI), X1, X1
	VADDPS  X1, X0, X0
	MOVQ    $16, CX

dottail:
	CMPQ CX, R13
	JEQ  reduce

dottailloop:
	VMOVSS (SI)(CX*1), X1
	VMULSS (DI)(CX*1), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, CX
	CMPQ   CX, R13
	JNE    dottailloop

reduce:
	// Ordered fold ((s0+s1)+s2)+s3 into lane 0, then V − dot.
	VPSHUFD $0x55, X0, X1
	VADDSS  X1, X0, X0
	VPSHUFD $0xaa, X0, X1
	VADDSS  X1, X0, X0
	VPSHUFD $0xff, X0, X1
	VADDSS  X1, X0, X0
	VSUBSS  X0, X3, X3
	// d = float64(V − dot); sum += d·d.
	VCVTSS2SD X3, X3, X3
	VMULSD    X3, X3, X3
	VADDSD    X3, X8, X8
	INCQ      R11
	JMP       entry

done:
	VMOVSD X8, sum+96(FP)
	MOVQ   R11, n+104(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
