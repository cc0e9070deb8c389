//go:build !noasm

// SSE rating sweeps (DESIGN.md §16). Go has no float32 auto-vectorizer,
// so the amd64 build hand-vectorizes its two per-rating loops with
// baseline SSE/SSE2 (MOVUPS / MULPS / ADDPS / PSHUFD — no CPUID gate
// needed, SSE2 is architectural on amd64):
//
//   - sgdSweep is the build's one SGD kernel: the TrainEntries loop,
//     walking []sparse.Rating itself instead of taking one Go call per
//     rating. UpdateOne is its one-entry case.
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
//   - The packed dot accumulates into one XMM register whose four lanes
//     are exactly the scalar kernel's four partial sums (lane j gets
//     elements j, j+4, j+8, …); the scalar tail adds into lane 0, which is
//     where the scalar kernel's tail goes (s0).
//   - The horizontal reduction is the ordered fold ((s0+s1)+s2)+s3 via
//     PSHUFD lane extracts + ADDSS — NOT HADDPS, whose pairing would
//     change the summation order. ADDSS writes lane 0 only, so lanes 1–3
//     still hold s1..s3 for the next extract.
//   - The update pass is element-independent, and every multiply and add
//     keeps its two operands; only which one is the destination register
//     changes (ADDPS(ge*q, p) rather than p + ge*q). IEEE-754 add and
//     multiply are commutative on the bit level, so the rounded results
//     are the same. That lets the last use of p and q overwrite them and
//     saves two of the four register copies per group.
//   - sqErrSweep forms d = V − dot in float32, converts it exactly with
//     CVTSS2SD and accumulates sum += d·d in float64 in input order.
//
// Every loop advances one index register: the 4-lane loops run a negative
// byte index up to zero against row pointers that point past the packed
// part, and the 1–3-element tails run it on from zero.

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
	ANDQ $-16, DX
	MOVQ R12, R13
	SUBQ DX, R13
	MOVQ entries_base+72(FP), R10
	XORQ R11, R11
	// Broadcast γ, γλ1 and γλ2 once per sweep (X12, X10, X11).
	MOVSS  h_Gamma+96(FP), X12
	MOVAPS X12, X10
	MULSS  h_Lambda1+100(FP), X10
	MOVAPS X12, X11
	MULSS  h_Lambda2+104(FP), X11
	SHUFPS $0x0, X12, X12
	SHUFPS $0x0, X10, X10
	SHUFPS $0x0, X11, X11
	XORPS  X3, X3

entry:
	// Record R11: bounds-check U and I (an out-of-range row ends the
	// sweep before any store), X3 = V, SI/DI = p/q rows past their packed
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
	MOVSS   8(BX), X3
	IMULQ   R12, AX
	IMULQ   R12, CX
	LEAQ    (R8)(AX*1), SI
	ADDQ    DX, SI
	LEAQ    (R9)(CX*1), DI
	ADDQ    DX, DI
	XORPS   X0, X0
	MOVQ    DX, CX
	NEGQ    CX
	JZ      dottail

dotloop:
	MOVUPS (SI)(CX*1), X1
	MOVUPS (DI)(CX*1), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $16, CX
	JNZ    dotloop

dottail:
	TESTQ R13, R13
	JZ    reduce

dottailloop:
	MOVSS (SI)(CX*1), X1
	MULSS (DI)(CX*1), X1
	ADDSS X1, X0
	ADDQ  $4, CX
	CMPQ  CX, R13
	JNE   dottailloop

reduce:
	// Ordered fold ((s0+s1)+s2)+s3 into lane 0, then V − dot.
	PSHUFD $0x55, X0, X1
	ADDSS  X1, X0
	PSHUFD $0xaa, X0, X1
	ADDSS  X1, X0
	PSHUFD $0xff, X0, X1
	ADDSS  X1, X0
	SUBSS  X0, X3
	// X3 = e = r − dot; X5 = ge = e·γ in every lane.
	PSHUFD $0x0, X3, X5
	MULPS  X12, X5
	MOVQ   DX, CX
	NEGQ   CX
	JZ     updtail

updloop:
	// p' = (p + ge·q) − gl1·p ; q' = (q + ge·p) − gl2·q, four lanes at a
	// time with the pre-update p in q's gradient.
	MOVUPS (SI)(CX*1), X1
	MOVUPS (DI)(CX*1), X2
	MOVAPS X1, X6
	MULPS  X10, X6
	MOVAPS X2, X7
	MULPS  X5, X7
	ADDPS  X1, X7
	SUBPS  X6, X7
	MULPS  X5, X1
	ADDPS  X2, X1
	MULPS  X11, X2
	SUBPS  X2, X1
	MOVUPS X7, (SI)(CX*1)
	MOVUPS X1, (DI)(CX*1)
	ADDQ   $16, CX
	JNZ    updloop

updtail:
	TESTQ R13, R13
	JZ    next

updtailloop:
	MOVSS (SI)(CX*1), X1
	MOVSS (DI)(CX*1), X2
	MOVAPS X1, X6
	MULSS X10, X6
	MOVAPS X2, X7
	MULSS X5, X7
	ADDSS X1, X7
	SUBSS X6, X7
	MULSS X5, X1
	ADDSS X2, X1
	MULSS X11, X2
	SUBSS X2, X1
	MOVSS X7, (SI)(CX*1)
	MOVSS X1, (DI)(CX*1)
	ADDQ  $4, CX
	CMPQ  CX, R13
	JNE   updtailloop

next:
	INCQ R11
	JMP  entry

done:
	MOVQ  R11, n+112(FP)
	MOVSS X3, e+120(FP)
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
	ANDQ $-16, DX
	MOVQ R12, R13
	SUBQ DX, R13
	MOVQ entries_base+72(FP), R10
	XORQ R11, R11
	XORPS X8, X8

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
	MOVSS   8(BX), X3
	IMULQ   R12, AX
	IMULQ   R12, CX
	LEAQ    (R8)(AX*1), SI
	ADDQ    DX, SI
	LEAQ    (R9)(CX*1), DI
	ADDQ    DX, DI
	XORPS   X0, X0
	MOVQ    DX, CX
	NEGQ    CX
	JZ      dottail

dotloop:
	MOVUPS (SI)(CX*1), X1
	MOVUPS (DI)(CX*1), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $16, CX
	JNZ    dotloop

dottail:
	TESTQ R13, R13
	JZ    reduce

dottailloop:
	MOVSS (SI)(CX*1), X1
	MULSS (DI)(CX*1), X1
	ADDSS X1, X0
	ADDQ  $4, CX
	CMPQ  CX, R13
	JNE   dottailloop

reduce:
	// Ordered fold ((s0+s1)+s2)+s3 into lane 0, then V − dot.
	PSHUFD $0x55, X0, X1
	ADDSS  X1, X0
	PSHUFD $0xaa, X0, X1
	ADDSS  X1, X0
	PSHUFD $0xff, X0, X1
	ADDSS  X1, X0
	SUBSS  X0, X3
	// d = float64(V − dot); sum += d·d.
	CVTSS2SD X3, X3
	MULSD    X3, X3
	ADDSD    X3, X8
	INCQ     R11
	JMP      entry

done:
	MOVSD X8, sum+96(FP)
	MOVQ  R11, n+104(FP)
	RET
