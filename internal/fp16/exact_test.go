package fp16

import (
	"math"
	"testing"
)

// referenceFromFloat32 is the branchy scalar conversion the package shipped
// before FromFloat32's integer-rounding fast path: every case, the normal
// range included, decided field by field. FromFloat32 must match it on
// every input.
func referenceFromFloat32(f float32) Bits16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask16
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if man == 0 {
			return Bits16(sign | expMask16)
		}
		payload := uint16(man>>13) & manMask16
		return Bits16(sign | expMask16 | 0x0200 | payload)
	case exp == 0 && man == 0: // signed zero
		return Bits16(sign)
	}

	e := exp - expBias32 + expBias16
	switch {
	case e >= 0x1f: // overflow → infinity
		return Bits16(sign | expMask16)
	case e >= 1: // normal range
		m := man >> 13
		round := man & 0x1fff
		if round > 0x1000 || (round == 0x1000 && m&1 == 1) {
			m++
			if m == 0x400 { // mantissa overflowed into exponent
				m = 0
				e++
				if e >= 0x1f {
					return Bits16(sign | expMask16)
				}
			}
		}
		return Bits16(sign | uint16(e)<<10 | uint16(m))
	case e >= -10: // subnormal range: shift the implicit bit in
		m := man | 0x800000
		shift := uint32(14 - e)
		sub := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && sub&1 == 1) {
			sub++
		}
		return Bits16(sign | uint16(sub))
	default: // underflow → signed zero
		return Bits16(sign)
	}
}

// roundingLows are the low 13 FP32 mantissa bits (the ones binary16 drops)
// that decide every rounding branch: exact, just above exact, just below
// the tie, the tie, just above the tie, and just below the next half.
var roundingLows = []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff}

// TestFromFloat32MatchesReference compares the fast encode against the
// reference on every sign, exponent and kept-mantissa pattern (all 2^19
// high-bit combinations) under each rounding-deciding low pattern: every
// binade boundary, every tie, the carry into the exponent and the carry
// into Inf.
func TestFromFloat32MatchesReference(t *testing.T) {
	for hi := uint32(0); hi < 1<<19; hi++ {
		for _, lo := range roundingLows {
			bits := hi<<13 | lo
			f := math.Float32frombits(bits)
			if got, want := FromFloat32(f), referenceFromFloat32(f); got != want {
				t.Fatalf("FromFloat32(%#08x) = %#04x, reference %#04x", bits, got, want)
			}
		}
	}
}

// TestEncodeSliceMatchesReference runs the same sweep through the slice
// encoder on each tier, then every span of a sample that covers each
// rounding class, checking that nothing outside the span is written.
func TestEncodeSliceMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		src := make([]float32, 1<<19)
		dst := make([]Bits16, len(src))
		for _, lo := range roundingLows {
			for hi := range src {
				src[hi] = math.Float32frombits(uint32(hi)<<13 | lo)
			}
			EncodeSlice(dst, src)
			for i, v := range src {
				if want := referenceFromFloat32(v); dst[i] != want {
					t.Fatalf("EncodeSlice(%#08x) = %#04x, reference %#04x", math.Float32bits(v), dst[i], want)
				}
			}
		}
		sample := wireSample(25)
		for _, sp := range spans {
			off, n := sp[0], sp[1]
			got := make([]Bits16, len(sample))
			for i := range got {
				got[i] = sentinel16
			}
			EncodeSlice(got[off:off+n], sample[off:off+n])
			for i, v := range sample {
				want := sentinel16
				if i >= off && i < off+n {
					want = referenceFromFloat32(v)
				}
				if got[i] != want {
					t.Fatalf("span [%d,%d): element %d = %#04x, want %#04x", off, off+n, i, got[i], want)
				}
			}
		}
	})
}

// sentinel16 and sentinel32 fill the space around a converted span; the
// codec never writes them there.
const (
	sentinel16 Bits16 = 0x7e5a
	sentinel32 uint32 = 0x7fc0dead
)

// TestDecodeSliceMatchesToFloat32 checks the decode on all 65,536 binary16
// patterns on each tier, comparing bits so NaN payloads count too, then
// every span of the patterns starting at the subnormals and at the NaNs.
func TestDecodeSliceMatchesToFloat32(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		src := make([]Bits16, 1<<16)
		for i := range src {
			src[i] = Bits16(i)
		}
		dst := make([]float32, len(src))
		DecodeSlice(dst, src)
		for i, h := range src {
			if got, want := math.Float32bits(dst[i]), math.Float32bits(h.ToFloat32()); got != want {
				t.Fatalf("DecodeSlice(%#04x) = %#08x, ToFloat32 %#08x", uint16(h), got, want)
			}
		}
		for _, base := range []int{0x0001, 0x7c00, 0xfbf8} {
			sample := src[base : base+25]
			for _, sp := range spans {
				off, n := sp[0], sp[1]
				got := make([]float32, len(sample))
				for i := range got {
					got[i] = math.Float32frombits(sentinel32)
				}
				DecodeSlice(got[off:off+n], sample[off:off+n])
				for i, h := range sample {
					want := sentinel32
					if i >= off && i < off+n {
						want = math.Float32bits(h.ToFloat32())
					}
					if math.Float32bits(got[i]) != want {
						t.Fatalf("span [%d,%d) from %#04x: element %d = %#08x, want %#08x", off, off+n, base, i, math.Float32bits(got[i]), want)
					}
				}
			}
		}
	})
}

// wireSample spans every rounding class: normals, ties, subnormals,
// overflow, signed zeros, Inf and NaN.
func wireSample(n int) []float32 {
	src := make([]float32, n)
	for i := range src {
		src[i] = math.Float32frombits(uint32(i)*0x9e3779b1>>13<<13 | roundingLows[i%len(roundingLows)])
	}
	return src
}

// TestWireCodecMatchesSlices checks EncodeWire/DecodeWire against the
// scalar conversions on each tier and both paths: the in-place view
// (aligned buffer) and the stack-staged fallback (a buffer offset by one
// byte), across every length up to two blocks and several stage lengths.
func TestWireCodecMatchesSlices(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		lengths := []int{stageLen - 1, stageLen, 3*stageLen + 5}
		for n := 0; n <= 17; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			src := wireSample(n)
			backing := make([]byte, 2*n+1)
			for _, off := range []int{0, 1} {
				buf := backing[off : off+2*n]
				EncodeWire(buf, src)
				for i, v := range src {
					if got, want := Bits16(buf[2*i])|Bits16(buf[2*i+1])<<8, FromFloat32(v); got != want {
						t.Fatalf("n=%d off=%d: EncodeWire[%d] = %#04x, want %#04x", n, off, i, got, want)
					}
				}
				got := make([]float32, n)
				DecodeWire(got, buf)
				for i, v := range src {
					if want := FromFloat32(v).ToFloat32(); math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("n=%d off=%d: DecodeWire[%d] = %v, want %v", n, off, i, got[i], want)
					}
				}
			}
		}
	})
}

// TestRoundTripSliceMatchesScalar checks the round trip against the scalar
// conversions on each tier: a long input, in place, and every span.
func TestRoundTripSliceMatchesScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		src := wireSample(3*stageLen + 7)
		dst := make([]float32, len(src))
		RoundTripSlice(dst, src)
		for i, v := range src {
			if want := FromFloat32(v).ToFloat32(); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("RoundTripSlice[%d](%v) = %v, want %v", i, v, dst[i], want)
			}
		}
		for _, sp := range spans {
			off, n := sp[0], sp[1]
			got := make([]float32, 25)
			for i := range got {
				got[i] = math.Float32frombits(sentinel32)
			}
			RoundTripSlice(got[off:off+n], src[off:off+n])
			for i := range got {
				want := sentinel32
				if i >= off && i < off+n {
					want = math.Float32bits(dst[i])
				}
				if math.Float32bits(got[i]) != want {
					t.Fatalf("span [%d,%d): element %d = %#08x, want %#08x", off, off+n, i, math.Float32bits(got[i]), want)
				}
			}
		}
		// In place.
		RoundTripSlice(src, src)
		for i := range src {
			if math.Float32bits(src[i]) != math.Float32bits(dst[i]) {
				t.Fatalf("in-place RoundTripSlice diverged at %d", i)
			}
		}
	})
}

func TestWireCodecLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"EncodeWire":     func() { EncodeWire(make([]byte, 3), make([]float32, 2)) },
		"DecodeWire":     func() { DecodeWire(make([]float32, 2), make([]byte, 3)) },
		"RoundTripSlice": func() { RoundTripSlice(make([]float32, 1), make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCodecDoesNotAllocate(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		src := wireSample(3 * stageLen)
		bits := make([]Bits16, len(src))
		wire := make([]byte, 2*len(src))
		dst := make([]float32, len(src))
		DecodeSlice(dst, bits) // fill the table outside the measurement
		if a := testing.AllocsPerRun(20, func() {
			EncodeSlice(bits, src)
			DecodeSlice(dst, bits)
			EncodeWire(wire, src)
			DecodeWire(dst, wire)
			EncodeWire(wire[1:len(wire)-1], src[:len(src)-1])
			RoundTripSlice(dst, src)
			RoundTripSlice(dst[:13], src[3:16])
		}); a != 0 {
			t.Fatalf("codec allocates %v times per run, want 0", a)
		}
	})
}
