//go:build amd64 && !noasm

package mf

// updateOneVec is the SSE kernel in update_amd64.s and the build's one
// update kernel on amd64: one SGD step, bit-identical to
// updateOneGeneric/referenceUpdateOne for every k (see the .s file for the
// lane argument). Callers must guarantee len(q) >= len(p): the assembly
// reads p's length only. UpdateOne and TrainEntries establish that with a
// q[:len(p)] reslice / a three-index slice.
//
//go:noescape
func updateOneVec(p, q []float32, r float32, h HyperParams) float32
