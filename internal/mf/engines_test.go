package mf

import (
	"strings"
	"testing"

	"hccmf/internal/raceflag"
	"hccmf/internal/sparse"
)

// skipLockFreeUnderRace skips tests whose subject is deliberately
// unsynchronised (Hogwild-family kernels); see package raceflag.
func skipLockFreeUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("lock-free SGD is intentionally racy; skipped under -race")
	}
}

// trainSet builds a synthetic low-rank matrix so that every engine has
// structure to recover.
func trainSet(t testing.TB, rows, cols, nnz int, seed uint64) *sparse.COO {
	t.Helper()
	rng := sparse.NewRand(seed)
	const k = 4
	pf := make([]float32, rows*k)
	qf := make([]float32, cols*k)
	for i := range pf {
		pf[i] = 0.5 + rng.Float32()
	}
	for i := range qf {
		qf[i] = 0.5 + rng.Float32()
	}
	m := sparse.NewCOO(rows, cols, nnz)
	for c := 0; c < nnz; c++ {
		u := rng.Intn(rows)
		i := rng.Intn(cols)
		var dot float32
		for f := 0; f < k; f++ {
			dot += pf[u*k+f] * qf[i*k+f]
		}
		m.Add(int32(u), int32(i), dot+0.1*(rng.Float32()-0.5))
	}
	m.Shuffle(rng)
	return m
}

func runEngine(t *testing.T, e Engine, m *sparse.COO, epochs int) float64 {
	t.Helper()
	rng := sparse.NewRand(1)
	f := NewFactorsInit(m.Rows, m.Cols, 8, m.MeanRating(), rng)
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	before := RMSE(f, m.Entries)
	for i := 0; i < epochs; i++ {
		e.Epoch(f, m, h)
	}
	after := RMSE(f, m.Entries)
	if err := f.Validate(); err != nil {
		t.Fatalf("%s produced non-finite factors: %v", e.Name(), err)
	}
	if after >= before {
		t.Fatalf("%s: RMSE rose %v → %v", e.Name(), before, after)
	}
	return after
}

func TestSerialEngineConverges(t *testing.T) {
	m := trainSet(t, 80, 60, 4000, 2)
	rmse := runEngine(t, Serial{}, m, 25)
	if rmse > 0.3 {
		t.Fatalf("serial RMSE after 25 epochs = %v", rmse)
	}
}

func TestHogwildEngineConverges(t *testing.T) {
	skipLockFreeUnderRace(t)
	m := trainSet(t, 80, 60, 4000, 3)
	rmse := runEngine(t, &Hogwild{Threads: 4}, m, 25)
	if rmse > 0.35 {
		t.Fatalf("hogwild RMSE after 25 epochs = %v", rmse)
	}
}

func TestHogwildSingleThreadMatchesSerial(t *testing.T) {
	m := trainSet(t, 40, 30, 1000, 4)
	rng := sparse.NewRand(1)
	f1 := NewFactorsInit(m.Rows, m.Cols, 4, m.MeanRating(), rng)
	f2 := f1.Clone()
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	Serial{}.Epoch(f1, m, h)
	(&Hogwild{Threads: 1}).Epoch(f2, m, h)
	for i := range f1.P {
		if f1.P[i] != f2.P[i] {
			t.Fatal("1-thread Hogwild diverged from serial")
		}
	}
}

func TestHogwildZeroThreadsDefaultsToOne(t *testing.T) {
	m := trainSet(t, 20, 20, 200, 5)
	runEngine(t, &Hogwild{Threads: 0}, m, 5)
}

func TestFPSGDEngineConverges(t *testing.T) {
	m := trainSet(t, 80, 60, 4000, 6)
	rmse := runEngine(t, &FPSGD{Threads: 4}, m, 25)
	if rmse > 0.35 {
		t.Fatalf("fpsgd RMSE after 25 epochs = %v", rmse)
	}
}

func TestFPSGDTinyMatrixFallsBack(t *testing.T) {
	// 2×2 matrix cannot host a 5×5 grid; engine must fall back to serial.
	m := sparse.NewCOO(2, 2, 4)
	m.Add(0, 0, 1)
	m.Add(0, 1, 2)
	m.Add(1, 0, 3)
	m.Add(1, 1, 4)
	runEngine(t, &FPSGD{Threads: 4}, m, 40)
}

func TestFPSGDGridCacheReused(t *testing.T) {
	m := trainSet(t, 50, 50, 1000, 7)
	e := &FPSGD{Threads: 2}
	f := NewFactorsInit(50, 50, 4, m.MeanRating(), sparse.NewRand(2))
	h := HyperParams{Gamma: 0.01}
	e.Epoch(f, m, h)
	g1 := e.grid
	e.Epoch(f, m, h)
	if e.grid != g1 {
		t.Fatal("grid rebuilt for identical matrix")
	}
	m2 := trainSet(t, 50, 50, 1000, 8)
	e.Epoch(f, m2, h)
	if e.grid == g1 {
		t.Fatal("grid not rebuilt for new matrix")
	}
}

func TestBatchedEngineConverges(t *testing.T) {
	m := trainSet(t, 80, 60, 4000, 9)
	rmse := runEngine(t, &Batched{Groups: 8}, m, 25)
	if rmse > 0.35 {
		t.Fatalf("batched RMSE after 25 epochs = %v", rmse)
	}
}

func TestBatchedWholeEpochBatch(t *testing.T) {
	m := trainSet(t, 40, 40, 800, 10)
	runEngine(t, &Batched{Groups: 4}, m, 10)
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		e    Engine
		want string
	}{
		{Serial{}, "serial"},
		{&Hogwild{Threads: 4}, "hogwild-4"},
		{&FPSGD{Threads: 8}, "fpsgd-8"},
		{&Batched{Groups: 128}, "batched-128"},
	}
	for _, c := range cases {
		if got := c.e.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestTrainerRunAndRMSE(t *testing.T) {
	m := trainSet(t, 60, 50, 2000, 11)
	rng := sparse.NewRand(3)
	train, test, err := m.SplitTrainTest(rng, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{
		Engine: Serial{},
		Train:  train,
		Test:   test,
		Hyper:  HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005},
	}
	f := NewFactorsInit(m.Rows, m.Cols, 8, m.MeanRating(), rng)
	before := tr.TestRMSE(f)
	tr.Run(f, 20)
	if tr.Epochs() != 20 {
		t.Fatalf("Epochs = %d, want 20", tr.Epochs())
	}
	after := tr.TestRMSE(f)
	if after >= before {
		t.Fatalf("test RMSE rose: %v → %v", before, after)
	}
}

func TestTrainerNoTestFallsBackToTrain(t *testing.T) {
	m := trainSet(t, 20, 20, 200, 12)
	tr := &Trainer{Engine: Serial{}, Train: m, Hyper: HyperParams{Gamma: 0.01}}
	f := NewFactorsInit(20, 20, 4, m.MeanRating(), sparse.NewRand(1))
	if got, want := tr.TestRMSE(f), RMSE(f, m.Entries); got != want {
		t.Fatalf("fallback RMSE = %v, want %v", got, want)
	}
}

func TestEngineNamesAreDistinct(t *testing.T) {
	names := []string{Serial{}.Name(), (&Hogwild{Threads: 2}).Name(),
		(&FPSGD{Threads: 2}).Name(), (&Batched{Groups: 2}).Name()}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if strings.EqualFold(names[i], names[j]) {
				t.Fatalf("duplicate engine name %q", names[i])
			}
		}
	}
}
