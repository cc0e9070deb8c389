//go:build !noasm

// VEX rating sweeps (DESIGN.md §16). Go has no float32 auto-vectorizer,
// so the amd64 build hand-vectorizes its two per-rating loops with
// 8-lane AVX (VMOVUPS / VMULPS / VADDPS / VEXTRACTF128 on YMM registers).
// They use no AVX2, FMA or AVX-512 instruction, so the CPUID gate in
// update_amd64.go checks for AVX and OS-enabled YMM state only; a host
// that fails it runs the portable Go loops instead:
//
//   - sgdSweep is the SGD kernel: the trainPair loop, walking two
//     []sparse.Rating slices itself instead of taking one Go call per
//     rating. While both slices have ratings left it takes one from
//     each, on rows the other never touches, and runs their two dot
//     products and updates interleaved; then it finishes the longer
//     slice alone. TrainEntries is its one-slice case and UpdateOne its
//     one-entry case.
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
//   - A pair runs each rating's instruction sequence unchanged, in its
//     own registers, on rows the other rating neither reads nor writes,
//     so it gives the bits of the two ratings swept one after the other.
//
// Every loop advances one index register CX: the 8-lane loops run a
// negative byte index up to zero against row pointers that point past
// the 8-lane part, and the 4-lane group and 1–3-element tail run it on
// from zero to R13, the bytes after that part. Both sweeps end with
// VZEROUPPER so no dirty upper YMM state reaches SSE code.

#include "textflag.h"

// func sgdSweep(p, q []float32, k, pRows, qRows int, a, b []sparse.Rating, h HyperParams) (n int, e float32)
//
// ABI0 frame (asmdecl-checked): p+0 q+24 k+48 pRows+56 qRows+64 a+72
// b+96 h_Gamma+120 h_Lambda1+124 h_Lambda2+128 / n+136 e+144.
//
// Registers held across the sweep: R8/R9 the P/Q bases, R12 the row
// bytes, DX its 8-lane part, R13 the rest, R10 the slice the record
// index R11 walks, R15 where that walk ends.
TEXT ·sgdSweep(SB), NOSPLIT, $0-148
	MOVQ p_base+0(FP), R8
	MOVQ q_base+24(FP), R9
	MOVQ k+48(FP), R12
	SHLQ $2, R12
	MOVQ R12, DX
	ANDQ $-32, DX
	MOVQ R12, R13
	SUBQ DX, R13
	MOVQ a_base+72(FP), R10
	XORQ R11, R11
	// γ, γλ1 and γλ2 in every lane once per sweep (Y12, Y10, Y11): each
	// lane's product is the scalar γ·λ, rounded once.
	VBROADCASTSS h_Gamma+120(FP), Y12
	VBROADCASTSS h_Lambda1+124(FP), Y10
	VMULPS       Y12, Y10, Y10
	VBROADCASTSS h_Lambda2+128(FP), Y11
	VMULPS       Y12, Y11, Y11
	VXORPS       X3, X3, X3
	// R15 = min(len(a), len(b)): the pairs a[i], b[i] swept together.
	MOVQ    a_len+80(FP), R15
	MOVQ    b_len+104(FP), AX
	CMPQ    AX, R15
	CMOVQLT AX, R15

pair:
	// Records a[R11] (BX) and b[R11] (R14): bounds-check all four rows
	// before either rating touches memory, then X3/X4 = the two V, SI/DI
	// = a's p/q rows and BX/R14 = b's, each past its 8-lane part, and
	// X0/X8 = the two dot products' four lanes.
	CMPQ    R11, R15
	JEQ     single
	LEAQ    (R11)(R11*2), AX
	LEAQ    (R10)(AX*4), BX
	MOVQ    b_base+96(FP), R14
	LEAQ    (R14)(AX*4), R14
	MOVLQSX 0(BX), SI
	CMPQ    SI, pRows+56(FP)
	JAE     done
	MOVLQSX 4(BX), DI
	CMPQ    DI, qRows+64(FP)
	JAE     done
	MOVLQSX 0(R14), AX
	CMPQ    AX, pRows+56(FP)
	JAE     done
	MOVLQSX 4(R14), CX
	CMPQ    CX, qRows+64(FP)
	JAE     done
	VMOVSS  8(BX), X3
	VMOVSS  8(R14), X4
	IMULQ   R12, SI
	IMULQ   R12, DI
	IMULQ   R12, AX
	IMULQ   R12, CX
	ADDQ    R8, SI
	ADDQ    DX, SI
	ADDQ    R9, DI
	ADDQ    DX, DI
	LEAQ    (R8)(AX*1), BX
	ADDQ    DX, BX
	LEAQ    (R9)(CX*1), R14
	ADDQ    DX, R14
	VXORPS  X0, X0, X0
	VXORPS  X8, X8, X8
	MOVQ    DX, CX
	NEGQ    CX
	JZ      pdot4

pdotloop:
	// The two chains advance in alternate instructions; each is the
	// single-rating dot loop below, step for step.
	VMOVUPS      (SI)(CX*1), Y1
	VMOVUPS      (BX)(CX*1), Y2
	VMULPS       (DI)(CX*1), Y1, Y1
	VMULPS       (R14)(CX*1), Y2, Y2
	VADDPS       X1, X0, X0
	VADDPS       X2, X8, X8
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y2, X2
	VADDPS       X1, X0, X0
	VADDPS       X2, X8, X8
	ADDQ         $32, CX
	JNZ          pdotloop

pdot4:
	CMPQ    R13, $16
	JLT     pdottail
	VMOVUPS (SI), X1
	VMOVUPS (BX), X2
	VMULPS  (DI), X1, X1
	VMULPS  (R14), X2, X2
	VADDPS  X1, X0, X0
	VADDPS  X2, X8, X8
	MOVQ    $16, CX

pdottail:
	CMPQ CX, R13
	JEQ  preduce

pdottailloop:
	VMOVSS (SI)(CX*1), X1
	VMOVSS (BX)(CX*1), X2
	VMULSS (DI)(CX*1), X1, X1
	VMULSS (R14)(CX*1), X2, X2
	VADDSS X1, X0, X0
	VADDSS X2, X8, X8
	ADDQ   $4, CX
	CMPQ   CX, R13
	JNE    pdottailloop

preduce:
	// Both ordered folds, then e_a = V_a − dot_a (X0) and e_b = V_b −
	// dot_b (X3, the error reported if the sweep ends after this pair);
	// Y5 = ge_a and Y6 = ge_b in every lane.
	VPSHUFD     $0x55, X0, X1
	VPSHUFD     $0x55, X8, X2
	VADDSS      X1, X0, X0
	VADDSS      X2, X8, X8
	VPSHUFD     $0xaa, X0, X1
	VPSHUFD     $0xaa, X8, X2
	VADDSS      X1, X0, X0
	VADDSS      X2, X8, X8
	VPSHUFD     $0xff, X0, X1
	VPSHUFD     $0xff, X8, X2
	VADDSS      X1, X0, X0
	VADDSS      X2, X8, X8
	VSUBSS      X0, X3, X0
	VSUBSS      X8, X4, X3
	VSHUFPS     $0x0, X0, X0, X5
	VSHUFPS     $0x0, X3, X3, X6
	VINSERTF128 $1, X5, Y5, Y5
	VINSERTF128 $1, X6, Y6, Y6
	VMULPS      Y12, Y5, Y5
	VMULPS      Y12, Y6, Y6
	MOVQ        DX, CX
	NEGQ        CX
	JZ          pupd4

pupdloop:
	// Both pairs of rows, eight lanes each: a in Y1/Y2 (temps Y7, Y0),
	// b in Y8/Y9 (temps Y13, Y4), each the single-rating update below.
	VMOVUPS (SI)(CX*1), Y1
	VMOVUPS (DI)(CX*1), Y2
	VMOVUPS (BX)(CX*1), Y8
	VMOVUPS (R14)(CX*1), Y9
	VMULPS  Y5, Y2, Y7
	VMULPS  Y6, Y9, Y13
	VADDPS  Y1, Y7, Y7
	VADDPS  Y8, Y13, Y13
	VMULPS  Y10, Y1, Y0
	VMULPS  Y10, Y8, Y4
	VSUBPS  Y0, Y7, Y7
	VSUBPS  Y4, Y13, Y13
	VMULPS  Y5, Y1, Y1
	VMULPS  Y6, Y8, Y8
	VADDPS  Y2, Y1, Y1
	VADDPS  Y9, Y8, Y8
	VMULPS  Y11, Y2, Y2
	VMULPS  Y11, Y9, Y9
	VSUBPS  Y2, Y1, Y1
	VSUBPS  Y9, Y8, Y8
	VMOVUPS Y7, (SI)(CX*1)
	VMOVUPS Y1, (DI)(CX*1)
	VMOVUPS Y13, (BX)(CX*1)
	VMOVUPS Y8, (R14)(CX*1)
	ADDQ    $32, CX
	JNZ     pupdloop

pupd4:
	CMPQ    R13, $16
	JLT     pupdtail
	VMOVUPS (SI), X1
	VMOVUPS (DI), X2
	VMOVUPS (BX), X8
	VMOVUPS (R14), X9
	VMULPS  X5, X2, X7
	VMULPS  X6, X9, X13
	VADDPS  X1, X7, X7
	VADDPS  X8, X13, X13
	VMULPS  X10, X1, X0
	VMULPS  X10, X8, X4
	VSUBPS  X0, X7, X7
	VSUBPS  X4, X13, X13
	VMULPS  X5, X1, X1
	VMULPS  X6, X8, X8
	VADDPS  X2, X1, X1
	VADDPS  X9, X8, X8
	VMULPS  X11, X2, X2
	VMULPS  X11, X9, X9
	VSUBPS  X2, X1, X1
	VSUBPS  X9, X8, X8
	VMOVUPS X7, (SI)
	VMOVUPS X1, (DI)
	VMOVUPS X13, (BX)
	VMOVUPS X8, (R14)
	MOVQ    $16, CX

pupdtail:
	CMPQ CX, R13
	JEQ  pnext

pupdtailloop:
	VMOVSS (SI)(CX*1), X1
	VMOVSS (DI)(CX*1), X2
	VMOVSS (BX)(CX*1), X8
	VMOVSS (R14)(CX*1), X9
	VMULSS X5, X2, X7
	VMULSS X6, X9, X13
	VADDSS X1, X7, X7
	VADDSS X8, X13, X13
	VMULSS X10, X1, X0
	VMULSS X10, X8, X4
	VSUBSS X0, X7, X7
	VSUBSS X4, X13, X13
	VMULSS X5, X1, X1
	VMULSS X6, X8, X8
	VADDSS X2, X1, X1
	VADDSS X9, X8, X8
	VMULSS X11, X2, X2
	VMULSS X11, X9, X9
	VSUBSS X2, X1, X1
	VSUBSS X9, X8, X8
	VMOVSS X7, (SI)(CX*1)
	VMOVSS X1, (DI)(CX*1)
	VMOVSS X13, (BX)(CX*1)
	VMOVSS X8, (R14)(CX*1)
	ADDQ   $4, CX
	CMPQ   CX, R13
	JNE    pupdtailloop

pnext:
	INCQ R11
	JMP  pair

single:
	// One slice is used up: finish the other alone, from index R11. R10
	// still holds a's base; when a is the one used up, switch to b.
	MOVQ a_len+80(FP), R15
	CMPQ R11, R15
	JNE  entry
	MOVQ b_base+96(FP), R10
	MOVQ b_len+104(FP), R15

entry:
	// Record R11: bounds-check U and I (an out-of-range row ends the
	// sweep before any store), X3 = V, SI/DI = p/q rows past their 8-lane
	// part, X0 = the dot product's four lanes.
	CMPQ    R11, R15
	JEQ     done
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
	MOVQ   R11, n+136(FP)
	VMOVSS X3, e+144(FP)
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
