//go:build !amd64 || noasm

package fp16

// On builds without the F16C assembly (another architecture, or amd64
// with -tags noasm) the slice codec is the portable loops. CI runs this
// file on amd64 through the noasm leg, so the portable codec cannot rot.

// useF16C is always false here: there is no F16C tier to select.
var useF16C = false

func encodeSlice(dst []Bits16, src []float32) { encodeGeneric(dst, src) }

func decodeSlice(dst []float32, src []Bits16) { decodeGeneric(dst, src) }

func roundTripSlice(dst, src []float32) { roundTripGeneric(dst, src) }
