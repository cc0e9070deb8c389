//go:build !amd64 || noasm

package mf

// haveVec: no hand-written vector kernel on this architecture (or the
// assembly path was disabled with -tags noasm); the kernel table falls
// back to the unrolled Go kernels for k ∈ {32, 64, 128} and the fused
// 8-wide kernel otherwise. CI exercises this file on amd64 via the noasm
// matrix leg, so the portable path cannot rot between architecture ports.
const haveVec = false

// updateOneVec falls back to the portable fused kernel. Same bit-exact
// results as the amd64 SSE kernel (both match referenceUpdateOne).
//
// lint:hotpath
func updateOneVec(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneGeneric(p, q, r, h)
}
