package mf

import "hccmf/internal/sparse"

// HyperParams are the SGD hyper-parameters: learning rate γ and the L2
// regularisers λ1 (on P) and λ2 (on Q) from the paper's loss
//
//	Σ (r_uv − p_u·q_v)² + λ1‖P‖² + λ2‖Q‖².
type HyperParams struct {
	Gamma   float32
	Lambda1 float32
	Lambda2 float32
}

// UpdateOne applies one SGD step for the rating r at (p, q):
//
//	e  = r − p·q
//	p += γ(e·q − λ1·p)
//	q += γ(e·p − λ2·q)
//
// using the pre-update value of p in q's gradient (the standard
// simultaneous update). It returns the signed prediction error e.
//
// UpdateOne is the one-entry case of the build's one update kernel: the
// SSE rating sweep on amd64, updateOneGeneric under !amd64 || noasm
// (DESIGN.md §16). Both are pinned bit-identical to referenceUpdateOne —
// the memory-layout pass is not allowed to move the convergence
// trajectory — by the kernel-equivalence sweep in kernel_equiv_test.go.
//
// lint:hotpath
func UpdateOne(p, q []float32, r float32, h HyperParams) float32 {
	return updateOne(p, q[:len(p)], r, h)
}

// updateOneGeneric is the portable fused kernel (PR 3): dot product fused
// with the update sweep, both passes advancing the slice headers eight
// elements at a time so the constant indices 0..7 are trivially in bounds
// and the compiler emits no per-element bounds checks (verified with
// -d=ssa/check_bce).
//
// The floating-point evaluation order is identical to Dot followed by the
// rolled update loop: the dot folds elements into the same four partial
// sums in the same sequence (s0 gets elements 0,4,8,…; s1 gets 1,5,9,…;
// …), and the update writes are element-independent, so results are
// bit-identical to the unfused kernel — locked in by
// TestUpdateOneMatchesReference.
//
// lint:hotpath
func updateOneGeneric(p, q []float32, r float32, h HyperParams) float32 {
	n := len(p)
	q = q[:n]
	var s0, s1, s2, s3 float32
	pp, qq := p, q
	for len(pp) >= 8 && len(qq) >= 8 {
		s0 += pp[0] * qq[0]
		s1 += pp[1] * qq[1]
		s2 += pp[2] * qq[2]
		s3 += pp[3] * qq[3]
		s0 += pp[4] * qq[4]
		s1 += pp[5] * qq[5]
		s2 += pp[6] * qq[6]
		s3 += pp[7] * qq[7]
		pp = pp[8:]
		qq = qq[8:]
	}
	for len(pp) >= 4 && len(qq) >= 4 {
		s0 += pp[0] * qq[0]
		s1 += pp[1] * qq[1]
		s2 += pp[2] * qq[2]
		s3 += pp[3] * qq[3]
		pp = pp[4:]
		qq = qq[4:]
	}
	for i := 0; i < len(pp) && i < len(qq); i++ {
		s0 += pp[i] * qq[i]
	}
	e := r - (s0 + s1 + s2 + s3)
	ge := h.Gamma * e
	gl1 := h.Gamma * h.Lambda1
	gl2 := h.Gamma * h.Lambda2
	pp, qq = p, q
	for len(pp) >= 8 && len(qq) >= 8 {
		p0, q0 := pp[0], qq[0]
		p1, q1 := pp[1], qq[1]
		p2, q2 := pp[2], qq[2]
		p3, q3 := pp[3], qq[3]
		pp[0] = p0 + ge*q0 - gl1*p0
		qq[0] = q0 + ge*p0 - gl2*q0
		pp[1] = p1 + ge*q1 - gl1*p1
		qq[1] = q1 + ge*p1 - gl2*q1
		pp[2] = p2 + ge*q2 - gl1*p2
		qq[2] = q2 + ge*p2 - gl2*q2
		pp[3] = p3 + ge*q3 - gl1*p3
		qq[3] = q3 + ge*p3 - gl2*q3
		p4, q4 := pp[4], qq[4]
		p5, q5 := pp[5], qq[5]
		p6, q6 := pp[6], qq[6]
		p7, q7 := pp[7], qq[7]
		pp[4] = p4 + ge*q4 - gl1*p4
		qq[4] = q4 + ge*p4 - gl2*q4
		pp[5] = p5 + ge*q5 - gl1*p5
		qq[5] = q5 + ge*p5 - gl2*q5
		pp[6] = p6 + ge*q6 - gl1*p6
		qq[6] = q6 + ge*p6 - gl2*q6
		pp[7] = p7 + ge*q7 - gl1*p7
		qq[7] = q7 + ge*p7 - gl2*q7
		pp = pp[8:]
		qq = qq[8:]
	}
	for i := 0; i < len(pp) && i < len(qq); i++ {
		p0, q0 := pp[i], qq[i]
		pp[i] = p0 + ge*q0 - gl1*p0
		qq[i] = q0 + ge*p0 - gl2*q0
	}
	return e
}

// UpdatesPerEntryFLOPs reports the floating-point operations one UpdateOne
// performs for dimension k: 2k for the dot product, ~5k for the two factor
// updates. Used by the cost model's "7k/Pi" term.
func UpdatesPerEntryFLOPs(k int) int { return 7 * k }

// UpdateBytes reports the bytes of memory traffic one update generates for
// dimension k under the paper's model: p and q are each read twice and
// written once (16k bytes for FP32 vectors of length k at 4 bytes ×
// (2 reads + 1 write) rounded the paper's way) plus the 4-byte rating —
// the (16k + 4) factor in Eq. 2.
func UpdateBytes(k int) int { return 16*k + 4 }

// TrainEntries runs one in-order SGD pass over entries against f.
// It is the one sweep loop of the build: the serial engine, every pool
// task (FPSGD block, Hogwild chunk, Batched group) and the parameter
// server's async streams all train through it; callers own any required
// synchronisation. On amd64 the whole loop is the SSE sweep in
// update_amd64.s, which reads the rating records itself; elsewhere it is a
// Go loop over updateOneGeneric. An entry whose U or I lies outside f
// panics, after every earlier entry has been applied and before anything
// is written for it.
//
// lint:hotpath
func TrainEntries(f *Factors, entries []sparse.Rating, h HyperParams) {
	trainEntries(f, entries, h)
}
