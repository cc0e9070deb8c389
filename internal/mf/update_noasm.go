//go:build !amd64 || noasm

package mf

import "hccmf/internal/sparse"

// On builds without the SSE assembly (another architecture, or amd64 with
// -tags noasm) the build's one update kernel is the portable
// updateOneGeneric, and both rating loops stay in Go: bit-identical to the
// amd64 sweeps (all match referenceUpdateOne / sumSqErrGeneric). CI
// exercises this file on amd64 via the noasm matrix leg, so the portable
// path cannot rot between architecture ports.

// lint:hotpath
func updateOne(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneGeneric(p, q, r, h)
}

// trainEntries inlines the row slicing (rather than going through
// PRow/QRow) so the flat P/Q base pointers and K stay in registers across
// the sweep; the three-index q slice caps the view so the kernel's
// q[:len(p)] guard is free.
//
// lint:hotpath
func trainEntries(f *Factors, entries []sparse.Rating, h HyperParams) {
	p, q, k := f.P, f.Q, f.K
	for idx := range entries {
		e := entries[idx]
		po := int(e.U) * k
		qo := int(e.I) * k
		updateOneGeneric(p[po:po+k], q[qo:qo+k:qo+k], e.V, h)
	}
}

// lint:hotpath
func sumSqErr(f *Factors, entries []sparse.Rating) float64 {
	return sumSqErrGeneric(f, entries)
}
