package mf

import (
	"math"
	"testing"

	"hccmf/internal/sparse"
)

func TestRMSEKnownValue(t *testing.T) {
	f := NewFactors(2, 2, 1)
	f.P[0], f.P[1] = 1, 2
	f.Q[0], f.Q[1] = 1, 1
	entries := []sparse.Rating{
		{U: 0, I: 0, V: 2}, // predict 1, err 1
		{U: 1, I: 1, V: 0}, // predict 2, err -2
	}
	want := math.Sqrt((1.0 + 4.0) / 2.0)
	if got := RMSE(f, entries); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
}

func TestRMSEEmpty(t *testing.T) {
	f := NewFactors(1, 1, 1)
	if got := RMSE(f, nil); got != 0 {
		t.Fatalf("RMSE(empty) = %v", got)
	}
	if got := RMSEParallel(f, nil, 4); got != 0 {
		t.Fatalf("RMSEParallel(empty) = %v", got)
	}
}

func TestRMSEParallelMatchesSerial(t *testing.T) {
	rng := sparse.NewRand(17)
	const rows, cols = 100, 100
	f := NewFactorsInit(rows, cols, 8, 3, rng)
	entries := make([]sparse.Rating, 50000)
	for i := range entries {
		entries[i] = sparse.Rating{
			U: int32(rng.Intn(rows)), I: int32(rng.Intn(cols)),
			V: 1 + 4*rng.Float32(),
		}
	}
	want := RMSE(f, entries)
	for _, workers := range []int{1, 2, 3, 8} {
		got := RMSEParallel(f, entries, workers)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("workers=%d: %v != %v", workers, got, want)
		}
	}
}

func TestRMSEParallelSmallInputUsesSerialPath(t *testing.T) {
	f := NewFactors(2, 2, 1)
	entries := []sparse.Rating{{U: 0, I: 0, V: 1}}
	if got, want := RMSEParallel(f, entries, 8), RMSE(f, entries); got != want {
		t.Fatalf("small-input parallel RMSE %v != %v", got, want)
	}
}

func TestLossIncludesRegularisation(t *testing.T) {
	f := NewFactors(1, 1, 2)
	f.P[0], f.P[1] = 1, 1
	f.Q[0], f.Q[1] = 1, 1
	entries := []sparse.Rating{{U: 0, I: 0, V: 2}} // perfect prediction
	h := HyperParams{Lambda1: 0.5, Lambda2: 0.25}
	// residual² = 0, λ1·|P|² = 0.5*2 = 1, λ2·|Q|² = 0.25*2 = 0.5
	if got := Loss(f, entries, h); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("Loss = %v, want 1.5", got)
	}
}

func BenchmarkUpdateOneK32(b *testing.B) {
	p := make([]float32, 32)
	q := make([]float32, 32)
	for i := range p {
		p[i], q[i] = 0.3, 0.4
	}
	h := HyperParams{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UpdateOne(p, q, 3.5, h)
	}
}

func BenchmarkDotK32(b *testing.B) {
	p := make([]float32, 32)
	q := make([]float32, 32)
	for i := range p {
		p[i], q[i] = 0.3, 0.4
	}
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += Dot(p, q)
	}
	_ = sink
}
