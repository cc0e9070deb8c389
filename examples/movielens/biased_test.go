package main

import (
	"math"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// biasedSet generates ratings dominated by user/item offsets, where the
// biased model should clearly beat the plain one.
func biasedSet(t testing.TB, rows, cols, nnz int, seed uint64) *sparse.COO {
	t.Helper()
	rng := sparse.NewRand(seed)
	bu := make([]float32, rows)
	bi := make([]float32, cols)
	for i := range bu {
		bu[i] = 2 * (rng.Float32() - 0.5) // ±1 user effects
	}
	for i := range bi {
		bi[i] = 2 * (rng.Float32() - 0.5)
	}
	m := sparse.NewCOO(rows, cols, nnz)
	for c := 0; c < nnz; c++ {
		u, i := rng.Intn(rows), rng.Intn(cols)
		r := 3 + bu[u] + bi[i] + 0.1*(rng.Float32()-0.5)
		m.Add(int32(u), int32(i), r)
	}
	m.Shuffle(rng)
	return m
}

func TestBiasedPredictComposition(t *testing.T) {
	b := &BiasedFactors{
		Factors: mf.NewFactors(2, 2, 2),
		Mu:      3,
		BU:      []float32{0.5, 0},
		BI:      []float32{0, -0.25},
	}
	copy(b.PRow(0), []float32{1, 2})
	copy(b.QRow(1), []float32{3, 1})
	// 3 + 0.5 + (−0.25) + (1·3 + 2·1) = 8.25
	if got := b.Predict(0, 1); got != 8.25 {
		t.Fatalf("Predict = %v, want 8.25", got)
	}
}

func TestBiasedUpdateReducesError(t *testing.T) {
	rng := sparse.NewRand(3)
	b := NewBiasedFactorsInit(4, 4, 4, 3, rng)
	h := mf.HyperParams{Gamma: 0.1, Lambda1: 0.01, Lambda2: 0.01}
	const r = 4.5
	before := math.Abs(float64(r - b.Predict(1, 2)))
	for i := 0; i < 60; i++ {
		b.UpdateOne(1, 2, r, h)
	}
	after := math.Abs(float64(r - b.Predict(1, 2)))
	if after >= before || after > 0.05 {
		t.Fatalf("residual %v → %v", before, after)
	}
}

func TestBiasedBeatsPlainOnBiasDominatedData(t *testing.T) {
	m := biasedSet(t, 150, 100, 6000, 7)
	rng1, rng2 := sparse.NewRand(1), sparse.NewRand(1)
	h := mf.HyperParams{Gamma: 0.02, Lambda1: 0.02, Lambda2: 0.02}
	const k, epochs = 4, 30

	plain := mf.NewFactorsInit(m.Rows, m.Cols, k, m.MeanRating(), rng1)
	for e := 0; e < epochs; e++ {
		mf.TrainEntries(plain, m.Entries, h)
	}
	biased := NewBiasedFactorsInit(m.Rows, m.Cols, k, m.MeanRating(), rng2)
	for e := 0; e < epochs; e++ {
		biased.Epoch(m.Entries, h)
	}
	plainRMSE := mf.RMSE(plain, m.Entries)
	biasedRMSE := biased.RMSE(m.Entries)
	if biasedRMSE >= plainRMSE {
		t.Fatalf("biased (%v) not better than plain (%v) on bias-dominated data",
			biasedRMSE, plainRMSE)
	}
	if biasedRMSE > 0.2 {
		t.Fatalf("biased model converged poorly: %v", biasedRMSE)
	}
}

func TestBiasedEpochAndValidate(t *testing.T) {
	m := biasedSet(t, 50, 40, 1000, 9)
	b := NewBiasedFactorsInit(m.Rows, m.Cols, 4, m.MeanRating(), sparse.NewRand(2))
	h := mf.HyperParams{Gamma: 0.02, Lambda1: 0.01, Lambda2: 0.01}
	before := b.RMSE(m.Entries)
	for e := 0; e < 10; e++ {
		b.Epoch(m.Entries, h)
	}
	if after := b.RMSE(m.Entries); after >= before {
		t.Fatalf("RMSE rose: %v → %v", before, after)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.BU[0] = float32(math.NaN())
	if err := b.Validate(); err == nil {
		t.Fatal("NaN bias not detected")
	}
	b.BU[0] = 0
	b.BI[1] = float32(math.Inf(1))
	if err := b.Validate(); err == nil {
		t.Fatal("Inf bias not detected")
	}
}

func TestBiasedRMSEEmpty(t *testing.T) {
	b := NewBiasedFactorsInit(2, 2, 2, 3, sparse.NewRand(1))
	if b.RMSE(nil) != 0 {
		t.Fatal("empty RMSE != 0")
	}
}
