package fp16

import (
	"math/rand"
	"testing"
)

func TestEncodeDecodeSlice(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, 3.5, 100, -65504}
	enc := make([]Bits16, len(src))
	EncodeSlice(enc, src)
	dec := make([]float32, len(src))
	DecodeSlice(dec, enc)
	for i := range src {
		if dec[i] != src[i] {
			t.Fatalf("index %d: %v → %v", i, src[i], dec[i])
		}
	}
}

func TestEncodeSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EncodeSlice(make([]Bits16, 2), make([]float32, 3))
}

func TestDecodeSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	DecodeSlice(make([]float32, 1), make([]Bits16, 2))
}

func TestRoundTripErrorRatingScale(t *testing.T) {
	// 5-point scale with 0.5 steps: all representable values must survive
	// well under the 0.25 half-step discrimination threshold.
	for v := float32(0); v <= 5; v += 0.5 {
		if e := RoundTripError(v); e > 0.01 {
			t.Fatalf("rating %v loses %v through fp16", v, e)
		}
	}
	// 100-point scale with 1-point steps.
	for v := float32(0); v <= 100; v += 1 {
		if e := RoundTripError(v); e > 0.5 {
			t.Fatalf("rating %v loses %v through fp16", v, e)
		}
	}
}

// benchQ is a factor matrix at the async workload's shape — 26,252 items
// at k = 64, N(0, 0.1) entries in random order — so the benchmarks see a
// realistic exponent spread and a cache-busting working set, not a sorted
// ramp that fits L1 and predicts every branch.
func benchQ() []float32 {
	rng := rand.New(rand.NewSource(1))
	q := make([]float32, 26252*64)
	for i := range q {
		q[i] = float32(rng.NormFloat64() * 0.1)
	}
	return q
}

func BenchmarkEncodeSlice(b *testing.B) {
	src := benchQ()
	dst := make([]Bits16, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSlice(dst, src)
	}
}

func BenchmarkDecodeSlice(b *testing.B) {
	q := benchQ()
	src := make([]Bits16, len(q))
	EncodeSlice(src, q)
	dst := make([]float32, len(src))
	b.SetBytes(int64(2 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSlice(dst, src)
	}
}

// BenchmarkRoundTripSlice round-trips the wide Q one 64-float row at a
// time, as ps.foldQRows takes each row's FP16 base.
func BenchmarkRoundTripSlice(b *testing.B) {
	src := benchQ()
	dst := make([]float32, 64)
	b.SetBytes(int64(4 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(src); lo += 64 {
			RoundTripSlice(dst, src[lo:lo+64])
		}
	}
}
