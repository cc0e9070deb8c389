package mf

import "hccmf/internal/sparse"

//go:generate go run ./internal/genkspec -out update_kspec.go

// Kernel selection (DESIGN.md §16). Every engine resolves its update
// kernel ONCE — at engine Init via sweeper.kernel, since k is fixed for a
// training run — and sweeps through trainEntriesKernel, whose dispatch
// switch sits outside the entry loop so each specialized loop makes direct
// (not indirect) calls with a constant dimension the compiler can fold
// into addressing.
//
// The table, best-first per build:
//
//	amd64            → kernVec      updateOneVec (SSE, bit-identical to
//	                                 referenceUpdateOne for every k)
//	k ∈ {32,64,128}  → kernK*       fully unrolled Go kernels (generated,
//	                                 see internal/genkspec)
//	otherwise        → kernGeneric  updateOneGeneric (fused 8-wide)
//
// Every kernel is pinned bit-identical to referenceUpdateOne by the
// k=1..160 sweep in kernel_equiv_test.go.
type kernelID uint8

const (
	kernGeneric kernelID = iota
	kernK32
	kernK64
	kernK128
	kernVec
)

// kernelIDFor picks the kernel for dimension k: the vector kernel wins
// where the build has one (it beats the unrolled Go kernels at every k),
// and the unrolled kernels cover the common dimensions on portable builds.
func kernelIDFor(k int) kernelID {
	if haveVec {
		return kernVec
	}
	switch k {
	case 32:
		return kernK32
	case 64:
		return kernK64
	case 128:
		return kernK128
	}
	return kernGeneric
}

// trainEntriesKernel sweeps entries through the selected kernel. Each case
// is its own loop so the kernel call is direct and, for the unrolled
// kernels, the row stride is a constant. Row slicing is inlined (rather
// than going through PRow/QRow) so the flat P/Q base pointers and K stay
// in registers across the sweep; the three-index q slice caps the view so
// the kernels' q[:len(p)] guard is free.
//
// lint:hotpath
func trainEntriesKernel(f *Factors, entries []sparse.Rating, h HyperParams, id kernelID) {
	p, q := f.P, f.Q
	switch id {
	case kernVec:
		k := f.K
		for idx := range entries {
			e := entries[idx]
			po := int(e.U) * k
			qo := int(e.I) * k
			updateOneVec(p[po:po+k], q[qo:qo+k:qo+k], e.V, h)
		}
	case kernK32:
		for idx := range entries {
			e := entries[idx]
			po := int(e.U) * 32
			qo := int(e.I) * 32
			updateOneK32(p[po:po+32], q[qo:qo+32:qo+32], e.V, h)
		}
	case kernK64:
		for idx := range entries {
			e := entries[idx]
			po := int(e.U) * 64
			qo := int(e.I) * 64
			updateOneK64(p[po:po+64], q[qo:qo+64:qo+64], e.V, h)
		}
	case kernK128:
		for idx := range entries {
			e := entries[idx]
			po := int(e.U) * 128
			qo := int(e.I) * 128
			updateOneK128(p[po:po+128], q[qo:qo+128:qo+128], e.V, h)
		}
	default:
		k := f.K
		for idx := range entries {
			e := entries[idx]
			po := int(e.U) * k
			qo := int(e.I) * k
			updateOneGeneric(p[po:po+k], q[qo:qo+k:qo+k], e.V, h)
		}
	}
}
