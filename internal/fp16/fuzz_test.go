package fp16

import (
	"math"
	"testing"
)

// FuzzConversionInvariants checks, for arbitrary float32 inputs, the IEEE
// invariants the codec must preserve: classification is stable, round
// trips are idempotent, and the result is the nearest representable half
// (|err| ≤ half the local ulp) for in-range finite values. It also holds
// the fast encode to the reference conversion bit for bit.
func FuzzConversionInvariants(f *testing.F) {
	f.Add(uint32(0))
	f.Add(math.Float32bits(1))
	f.Add(math.Float32bits(65504))
	f.Add(math.Float32bits(65520))
	f.Add(math.Float32bits(5.9604645e-08))
	f.Add(math.Float32bits(float32(math.Inf(1))))
	f.Add(uint32(0x7fc00000)) // NaN
	f.Add(uint32(0x80000001)) // -min subnormal
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		h := FromFloat32(v)
		if ref := referenceFromFloat32(v); h != ref {
			t.Fatalf("FromFloat32(%#08x) = %#04x, reference %#04x", bits, h, ref)
		}
		back := h.ToFloat32()

		switch {
		case math.IsNaN(float64(v)):
			if !h.IsNaN() || !math.IsNaN(float64(back)) {
				t.Fatalf("NaN lost: %#08x → %#04x → %v", bits, h, back)
			}
			return
		case math.IsInf(float64(v), 0):
			if !h.IsInf() || back != v {
				t.Fatalf("Inf lost: %v → %#04x → %v", v, h, back)
			}
			return
		}
		// Idempotence: converting the rounded value changes nothing.
		if h2 := FromFloat32(back); h2 != h {
			t.Fatalf("not idempotent: %v → %#04x, %v → %#04x", v, h, back, h2)
		}
		// Sign is preserved (including signed zero).
		if math.Signbit(float64(v)) != math.Signbit(float64(back)) && back == back {
			// Exception: values that overflow to ±Inf keep their sign too,
			// and underflow keeps the sign by construction — so any
			// mismatch is a bug.
			t.Fatalf("sign flipped: %v → %v", v, back)
		}
		// For in-range values the absolute error is bounded by half the
		// fp16 ulp at that magnitude.
		av := math.Abs(float64(v))
		if av <= 65504 && av >= 6.103515625e-05 {
			exp := math.Floor(math.Log2(av))
			ulp := math.Ldexp(1, int(exp)-10)
			if err := math.Abs(float64(back) - float64(v)); err > ulp/2*(1+1e-9) {
				t.Fatalf("error %v exceeds half-ulp %v for %v", err, ulp/2, v)
			}
		}
	})
}
