//go:build !noasm

// SSE update kernel (DESIGN.md §16). Go has no float32 auto-vectorizer,
// and the scalar fused kernel is compute-port-bound on this sweep, so the
// amd64 hot path hand-vectorizes the SGD step with baseline SSE (MOVUPS /
// MULPS / ADDPS — no CPUID gate needed on amd64, SSE2 is architectural).
//
// updateOneVec is bit-identical to the scalar kernel for EVERY k:
//
//   - The packed dot accumulates into one XMM register whose four lanes
//     are exactly the scalar kernel's four partial sums (lane j gets
//     elements j, j+4, j+8, …); the scalar tail adds into lane 0, which is
//     where the scalar kernel's tail goes (s0).
//   - The horizontal reduction is the ordered fold ((s0+s1)+s2)+s3 via
//     SHUFPS lane extracts + ADDSS — NOT HADDPS, whose pairing would
//     change the summation order.
//   - The update pass is element-independent, and IEEE-754 add/mul are
//     commutative on the bit level, so ADDPS(ge*q, p) equals the scalar
//     p + ge*q exactly.
//
// ABI0 frame (asmdecl-checked): p_base+0 p_len+8 p_cap+16 / q_base+24
// q_len+32 q_cap+40 / r+48 / h_Gamma+52 h_Lambda1+56 h_Lambda2+60 /
// ret+64 → $0-68. Callers guarantee len(q) >= len(p); only p_len drives
// the loops.

#include "textflag.h"

// func updateOneVec(p, q []float32, r float32, h HyperParams) float32
TEXT ·updateOneVec(SB), NOSPLIT, $0-68
	MOVQ  p_base+0(FP), SI
	MOVQ  q_base+24(FP), DI
	MOVQ  p_len+8(FP), CX
	XORPS X0, X0
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    dottail

dotloop:
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   BX
	JNZ    dotloop

dottail:
	MOVQ CX, BX
	ANDQ $3, BX
	JZ   reduce

dottailloop:
	MOVSS (SI), X1
	MULSS (DI), X1
	ADDSS X1, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  BX
	JNZ   dottailloop

reduce:
	// Ordered fold ((s0+s1)+s2)+s3, then e = r - dot and the three
	// broadcast coefficients ge, γλ1, γλ2.
	MOVAPS X0, X3
	MOVAPS X0, X1
	SHUFPS $0x1, X1, X1
	ADDSS  X1, X3
	MOVAPS X0, X1
	SHUFPS $0x2, X1, X1
	ADDSS  X1, X3
	MOVAPS X0, X1
	SHUFPS $0x3, X1, X1
	ADDSS  X1, X3
	MOVSS  r+48(FP), X4
	SUBSS  X3, X4
	MOVSS  h_Gamma+52(FP), X5
	MOVAPS X5, X10
	MOVAPS X5, X11
	MULSS  X4, X5
	MULSS  h_Lambda1+56(FP), X10
	MULSS  h_Lambda2+60(FP), X11
	SHUFPS $0x0, X5, X5
	SHUFPS $0x0, X10, X10
	SHUFPS $0x0, X11, X11
	MOVQ   p_base+0(FP), SI
	MOVQ   q_base+24(FP), DI
	MOVQ   CX, BX
	SHRQ   $2, BX
	JZ     updtail

updloop:
	// p' = (p + ge*q) - gl1*p ; q' = (q + ge*p) - gl2*q, four lanes at a
	// time with the pre-update p in q's gradient.
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	MOVAPS X2, X6
	MULPS  X5, X6
	ADDPS  X1, X6
	MOVAPS X1, X7
	MULPS  X10, X7
	SUBPS  X7, X6
	MOVAPS X1, X8
	MULPS  X5, X8
	ADDPS  X2, X8
	MOVAPS X2, X9
	MULPS  X11, X9
	SUBPS  X9, X8
	MOVUPS X6, (SI)
	MOVUPS X8, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   BX
	JNZ    updloop

updtail:
	MOVQ CX, BX
	ANDQ $3, BX
	JZ   done

updtailloop:
	MOVSS  (SI), X1
	MOVSS  (DI), X2
	MOVAPS X2, X6
	MULSS  X5, X6
	ADDSS  X1, X6
	MOVAPS X1, X7
	MULSS  X10, X7
	SUBSS  X7, X6
	MOVAPS X1, X8
	MULSS  X5, X8
	ADDSS  X2, X8
	MOVAPS X2, X9
	MULSS  X11, X9
	SUBSS  X9, X8
	MOVSS  X6, (SI)
	MOVSS  X8, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   BX
	JNZ    updtailloop

done:
	MOVSS X4, ret+64(FP)
	RET
