//go:build !amd64 || noasm

package mf

import "hccmf/internal/sparse"

// On builds without the VEX assembly (another architecture, or amd64 with
// -tags noasm) both rating loops are the portable Go loops. They give the
// VEX sweeps' bits there and on arm64: every product is wrapped in an
// explicit conversion, which forbids a fused multiply-add (DESIGN.md §16).
// CI exercises this file on amd64 via the noasm matrix leg, so the
// portable path cannot rot between architecture ports.

// useVEX is always false here: there is no VEX sweep to select.
var useVEX = false

// lint:hotpath
func updateOne(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneGeneric(p, q, r, h)
}

// trainPair sweeps a and then b: with no VEX sweep to pair them, the
// portable loop runs each slice alone.
//
// lint:hotpath
func trainPair(f *Factors, a, b []sparse.Rating, h HyperParams) {
	trainEntriesGeneric(f, a, h)
	trainEntriesGeneric(f, b, h)
}

// lint:hotpath
func sumSqErr(f *Factors, entries []sparse.Rating) float64 {
	return sumSqErrGeneric(f, entries)
}
