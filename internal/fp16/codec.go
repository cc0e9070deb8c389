package fp16

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// EncodeSlice compresses src into dst (as raw binary16 bits). dst must have
// len(src) elements. It is the package's one slice encoder: every FP16
// transfer in the repository runs through it. On amd64 hosts with F16C it
// converts 8 values per VCVTPS2PH; everywhere else, and for a tail of
// fewer than 8 values, it is the scalar FromFloat32. Both give the same
// bits.
func EncodeSlice(dst []Bits16, src []float32) {
	if len(dst) != len(src) {
		// lint:invariant paired-slice length mismatch is a caller bug on the hot encode path; the contract mirrors the builtin copy.
		panic(fmt.Sprintf("fp16: EncodeSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	encodeSlice(dst, src)
}

// encodeGeneric is the portable slice encoder. The loop body is
// FromFloat32 spelled out, because the compiler does not inline
// FromFloat32 itself (its rare-path call exceeds the inlining budget).
func encodeGeneric(dst []Bits16, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		if normalRange(b) {
			dst[i] = roundNormal(b)
		} else {
			dst[i] = fromFloat32Rare(b)
		}
	}
}

// decodeTable maps every binary16 pattern to its float32 value for the
// portable decode. It is filled once, on first use, from ToFloat32, so a
// table decode is exactly the scalar conversion; the 256 KiB table stays
// L2-resident, and the narrow exponent range of real factor values
// touches only a few of its lines. The F16C tier never fills it.
var decodeTable = sync.OnceValue(func() *[1 << 16]float32 {
	t := new([1 << 16]float32)
	for i := range t {
		t[i] = Bits16(i).ToFloat32()
	}
	return t
})

// DecodeSlice expands src into dst. dst must have len(src) elements. On
// amd64 hosts with F16C it converts 8 values per VCVTPH2PS; everywhere
// else it looks each value up in the decode table. Both are exactly
// ToFloat32.
func DecodeSlice(dst []float32, src []Bits16) {
	if len(dst) != len(src) {
		// lint:invariant see EncodeSlice: length contract mirrors the builtin copy.
		panic(fmt.Sprintf("fp16: DecodeSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	decodeSlice(dst, src)
}

// decodeGeneric is the portable slice decoder, by table lookup.
func decodeGeneric(dst []float32, src []Bits16) {
	dst = dst[:len(src)]
	t := decodeTable()
	for i, h := range src {
		dst[i] = t[h]
	}
}

// stageLen is the element count of the portable tier's stack staging
// buffers: 4 KiB of binary16, small enough to stay in L1 between the two
// passes.
const stageLen = 2048

// RoundTripSlice sets dst to the values src takes after one FP32→FP16→FP32
// round trip — the exact floats a receiver decodes from an FP16 transfer
// of src. dst and src must have the same length and may be the same slice.
// It never allocates: the F16C tier converts in registers, the portable
// one stages through the stack.
func RoundTripSlice(dst, src []float32) {
	if len(dst) != len(src) {
		// lint:invariant see EncodeSlice: length contract mirrors the builtin copy.
		panic(fmt.Sprintf("fp16: RoundTripSlice length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	roundTripSlice(dst, src)
}

// roundTripGeneric is the portable round trip, through a stack stage.
func roundTripGeneric(dst, src []float32) {
	var stage [stageLen]Bits16
	for lo := 0; lo < len(src); lo += stageLen {
		hi := min(lo+stageLen, len(src))
		s := stage[:hi-lo]
		encodeGeneric(s, src[lo:hi])
		decodeGeneric(dst[lo:hi], s)
	}
}

// littleEndian reports whether Bits16 values are stored low byte first on
// this host, i.e. whether a []Bits16 already has the wire layout.
var littleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wireView returns b as the []Bits16 it holds in the wire layout (two
// little-endian bytes per value), or nil when that view is not the
// in-memory layout: on a big-endian host, or when b is not 2-byte aligned.
func wireView(b []byte) []Bits16 {
	if !littleEndian || len(b) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%2 != 0 {
		return nil
	}
	return unsafe.Slice((*Bits16)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/2)
}

// EncodeWire encodes src into dst in the wire layout: len(src) binary16
// values, two little-endian bytes each. dst must have 2·len(src) bytes.
// It is EncodeSlice writing into dst in place where the host layout
// allows, and EncodeSlice through a stack stage otherwise.
func EncodeWire(dst []byte, src []float32) {
	if len(dst) != 2*len(src) {
		// lint:invariant see EncodeSlice: length contract mirrors the builtin copy.
		panic(fmt.Sprintf("fp16: EncodeWire length mismatch dst=%d bytes src=%d", len(dst), len(src)))
	}
	if v := wireView(dst); v != nil {
		EncodeSlice(v, src)
		return
	}
	var stage [stageLen]Bits16
	for lo := 0; lo < len(src); lo += stageLen {
		hi := min(lo+stageLen, len(src))
		s := stage[:hi-lo]
		EncodeSlice(s, src[lo:hi])
		for i, h := range s {
			binary.LittleEndian.PutUint16(dst[2*(lo+i):], uint16(h))
		}
	}
}

// DecodeWire decodes the wire-layout payload src (see EncodeWire) into
// dst. src must have 2·len(dst) bytes.
func DecodeWire(dst []float32, src []byte) {
	if len(src) != 2*len(dst) {
		// lint:invariant see EncodeSlice: length contract mirrors the builtin copy.
		panic(fmt.Sprintf("fp16: DecodeWire length mismatch dst=%d src=%d bytes", len(dst), len(src)))
	}
	if v := wireView(src); v != nil {
		DecodeSlice(dst, v)
		return
	}
	var stage [stageLen]Bits16
	for lo := 0; lo < len(dst); lo += stageLen {
		hi := min(lo+stageLen, len(dst))
		s := stage[:hi-lo]
		for i := range s {
			s[i] = Bits16(binary.LittleEndian.Uint16(src[2*(lo+i):]))
		}
		DecodeSlice(dst[lo:hi], s)
	}
}

// RoundTripError returns the absolute error introduced by one FP32→FP16→FP32
// round trip of v.
func RoundTripError(v float32) float32 {
	r := FromFloat32(v).ToFloat32()
	d := v - r
	if d < 0 {
		return -d
	}
	return d
}
