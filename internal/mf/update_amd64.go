//go:build amd64 && !noasm

package mf

// haveVec reports that updateOneVec is backed by a real vector kernel, so
// kernelIDFor prefers it over the unrolled Go kernels (it wins at every k
// on this sweep — the scalar kernels are compute-port-bound, not
// instruction-count-bound).
const haveVec = true

// updateOneVec is the SSE kernel in update_amd64.s: one SGD step,
// bit-identical to updateOneGeneric/referenceUpdateOne for every k (see
// the .s file for the lane argument). Callers must guarantee
// len(q) >= len(p): the assembly reads p's length only. UpdateOne and
// trainEntriesKernel establish that with a q[:len(p)] reslice / a
// three-index slice.
//
//go:noescape
func updateOneVec(p, q []float32, r float32, h HyperParams) float32
