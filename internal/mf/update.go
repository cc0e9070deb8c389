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
// UpdateOne is the one-entry case of the process's update kernel: the
// VEX rating sweep on amd64 hosts that pass the CPUID gate,
// updateOneGeneric everywhere else (DESIGN.md §16). Both are pinned
// bit-identical to referenceUpdateOne — the memory-layout pass is not
// allowed to move the convergence trajectory — by the kernel-equivalence
// sweep in kernel_equiv_test.go.
//
// lint:hotpath
func UpdateOne(p, q []float32, r float32, h HyperParams) float32 {
	return updateOne(p, q[:len(p)], r, h)
}

// updateOneGeneric is the portable fused kernel: dot product fused with
// the update sweep, both passes advancing the slice headers eight elements
// at a time so the constant indices 0..7 are trivially in bounds and the
// compiler emits no per-element bounds checks (-d=ssa/check_bce). Each
// product is wrapped in float32(...), which rounds it, so no port fuses
// it with its add (DESIGN.md §16).
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
		s0 += float32(pp[0] * qq[0])
		s1 += float32(pp[1] * qq[1])
		s2 += float32(pp[2] * qq[2])
		s3 += float32(pp[3] * qq[3])
		s0 += float32(pp[4] * qq[4])
		s1 += float32(pp[5] * qq[5])
		s2 += float32(pp[6] * qq[6])
		s3 += float32(pp[7] * qq[7])
		pp = pp[8:]
		qq = qq[8:]
	}
	for len(pp) >= 4 && len(qq) >= 4 {
		s0 += float32(pp[0] * qq[0])
		s1 += float32(pp[1] * qq[1])
		s2 += float32(pp[2] * qq[2])
		s3 += float32(pp[3] * qq[3])
		pp = pp[4:]
		qq = qq[4:]
	}
	for i := 0; i < len(pp) && i < len(qq); i++ {
		s0 += float32(pp[i] * qq[i])
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
		pp[0] = p0 + float32(ge*q0) - float32(gl1*p0)
		qq[0] = q0 + float32(ge*p0) - float32(gl2*q0)
		pp[1] = p1 + float32(ge*q1) - float32(gl1*p1)
		qq[1] = q1 + float32(ge*p1) - float32(gl2*q1)
		pp[2] = p2 + float32(ge*q2) - float32(gl1*p2)
		qq[2] = q2 + float32(ge*p2) - float32(gl2*q2)
		pp[3] = p3 + float32(ge*q3) - float32(gl1*p3)
		qq[3] = q3 + float32(ge*p3) - float32(gl2*q3)
		p4, q4 := pp[4], qq[4]
		p5, q5 := pp[5], qq[5]
		p6, q6 := pp[6], qq[6]
		p7, q7 := pp[7], qq[7]
		pp[4] = p4 + float32(ge*q4) - float32(gl1*p4)
		qq[4] = q4 + float32(ge*p4) - float32(gl2*q4)
		pp[5] = p5 + float32(ge*q5) - float32(gl1*p5)
		qq[5] = q5 + float32(ge*p5) - float32(gl2*q5)
		pp[6] = p6 + float32(ge*q6) - float32(gl1*p6)
		qq[6] = q6 + float32(ge*p6) - float32(gl2*q6)
		pp[7] = p7 + float32(ge*q7) - float32(gl1*p7)
		qq[7] = q7 + float32(ge*p7) - float32(gl2*q7)
		pp = pp[8:]
		qq = qq[8:]
	}
	for i := 0; i < len(pp) && i < len(qq); i++ {
		p0, q0 := pp[i], qq[i]
		pp[i] = p0 + float32(ge*q0) - float32(gl1*p0)
		qq[i] = q0 + float32(ge*p0) - float32(gl2*q0)
	}
	return e
}

// trainEntriesGeneric is the portable TrainEntries loop: one
// updateOneGeneric per entry. It inlines the row slicing (rather than
// going through PRow/QRow) so the flat P/Q base pointers and K stay in
// registers across the sweep; the three-index q slice caps the view so
// the kernel's q[:len(p)] guard is free.
//
// lint:hotpath
func trainEntriesGeneric(f *Factors, entries []sparse.Rating, h HyperParams) {
	p, q, k := f.P, f.Q, f.K
	for idx := range entries {
		e := entries[idx]
		po := int(e.U) * k
		qo := int(e.I) * k
		updateOneGeneric(p[po:po+k], q[qo:qo+k:qo+k], e.V, h)
	}
}

// Kernel reports which rating sweeps this process runs: "vex", the
// 8-lane AVX assembly on amd64 hosts that pass the CPUID gate, or "go",
// the portable loops (pre-AVX amd64 hosts, -tags noasm, other
// architectures). On amd64 both compute the same bits; only the speed
// differs.
func Kernel() string {
	if useVEX {
		return "vex"
	}
	return "go"
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
// It is the one-slice case of trainPair, the build's one sweep loop: the
// serial engine, every pool task (Hogwild chunk, BlockWalk block) and
// the parameter server's async streams all train through it, and only
// the one-thread BlockWalk calls trainPair with two slices; callers own
// any required synchronisation. Where Kernel reports "vex" the whole loop
// is the VEX sweep in update_amd64.s, which reads the rating records
// itself; elsewhere it is trainEntriesGeneric. An entry whose U or I lies
// outside f panics, after every earlier entry has been applied and before
// anything is written for it.
//
// lint:hotpath
func TrainEntries(f *Factors, entries []sparse.Rating, h HyperParams) {
	trainPair(f, entries, nil, h)
}
