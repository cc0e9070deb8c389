package sparse

import (
	"math"
	"testing"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 equal values", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck-at-zero stream")
	}
}

func TestRandUint64nRange(t *testing.T) {
	r := NewRand(9)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRandUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRand(1).Uint64n(0)
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(4)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRandFloat32Range(t *testing.T) {
	r := NewRand(4)
	for i := 0; i < 1000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 = %v out of [0,1)", v)
		}
	}
}

func TestRandUint64nUniformity(t *testing.T) {
	r := NewRand(77)
	const buckets = 8
	const n = 80000
	var hist [buckets]int
	for i := 0; i < n; i++ {
		hist[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range hist {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(31)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestFillFloat32MatchesFloat32Loop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, c := range []struct{ offset, scale float32 }{{0.5, 0.35355338}, {0, 1}, {-1.25, 3}} {
			want, got := NewRand(uint64(n)+9), NewRand(uint64(n)+9)
			w := make([]float32, n)
			for i := range w {
				w[i] = c.scale * (c.offset + want.Float32())
			}
			g := make([]float32, n)
			got.FillFloat32(g, c.offset, c.scale)
			for i := range w {
				if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
					t.Fatalf("n=%d %+v: value %d is %v, want %v", n, c, i, g[i], w[i])
				}
			}
			if *got != *want {
				t.Fatalf("n=%d %+v: end state differs", n, c)
			}
		}
	}
}
