//go:build !amd64 || noasm

package mf

// updateOneVec is the portable fused kernel on builds without the SSE
// assembly (another architecture, or amd64 with -tags noasm): the build's
// one update kernel is then updateOneGeneric, bit-identical to the amd64
// SSE kernel (both match referenceUpdateOne). CI exercises this file on
// amd64 via the noasm matrix leg, so the portable path cannot rot between
// architecture ports.
//
// lint:hotpath
func updateOneVec(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneGeneric(p, q, r, h)
}
