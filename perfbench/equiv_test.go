package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/sparse"
)

// smallCached is a train-cached-shaped workload small enough for a test.
func smallCached(t *testing.T) (workload, string) {
	t.Helper()
	w, err := lookupWorkload("train-cached")
	if err != nil {
		t.Fatal(err)
	}
	w.k, w.epochs = 16, 4
	ds, err := dataset.Generate(w.preset.MustScaled(0.002), 7)
	if err != nil {
		t.Fatal(err)
	}
	all := &sparse.COO{Rows: ds.Train.Rows, Cols: ds.Train.Cols,
		Entries: append(ds.Train.Entries, ds.Test.Entries...)}
	path := filepath.Join(t.TempDir(), "ratings.bin")
	if err := writeRatings(path, all, false); err != nil {
		t.Fatal(err)
	}
	return w, path
}

// TestTracedCompositionMatchesCoreRun pins that the benchmark's layer-by-
// layer composition, with its wrappers installed, trains the model
// core.Run trains from the same file, seed and one-thread-per-worker
// tuning: the per-layer numbers describe the program users run.
func TestTracedCompositionMatchesCoreRun(t *testing.T) {
	w, path := smallCached(t)
	const seed = 3
	nproc := 2 // one engine thread per worker on every machine
	dir := t.TempDir()
	cfg := jobConfig{w: w, ratings: path, seed: seed, nproc: nproc}

	cfg.model = filepath.Join(dir, "traced.bin")
	traced, err := runJob(cfg, newTracer("test"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.model = filepath.Join(dir, "plain.bin")
	plain, err := runJob(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := dataset.ReadRatingsFile(path, nproc)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := m.SplitTrainTest(sparse.NewRand(seed), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	spec := fileSpec(w, m.Rows, m.Cols, m.NNZ())
	res, err := core.Run(core.RunConfig{
		Spec: spec, Platform: platform(w), Epochs: w.epochs,
		Plan: planOptions(w, nproc), RealK: w.k,
		Data:          &dataset.Dataset{Spec: spec, Train: train, Test: test},
		TransportSpec: comm.Spec{Kind: w.transport},
		Tuning:        tuning(nproc),
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	corePath := filepath.Join(dir, "core.bin")
	if err := saveModel(corePath, res.Model); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(corePath)
	if err != nil {
		t.Fatal(err)
	}
	want := digest(raw)
	if traced.hash != want || plain.hash != want {
		t.Fatalf("model hashes: traced %s, untraced %s, core.Run %s", traced.hash, plain.hash, want)
	}
	if !traced.roundTrip || !plain.roundTrip {
		t.Fatal("saved model does not read back equal")
	}
	if got := traced.rmse[len(traced.rmse)-1]; got != res.FinalRMSE {
		t.Fatalf("final RMSE %v, core.Run %v", got, res.FinalRMSE)
	}
	if plain.spans != nil {
		t.Fatal("untraced job recorded spans")
	}
}

// TestSelfTimesSumToJobWall pins the traced run's accounting: the layers'
// self times plus the remainder equal the job's wall time, and every
// layer the composition calls shows up.
func TestSelfTimesSumToJobWall(t *testing.T) {
	w, path := smallCached(t)
	res, err := runJob(jobConfig{w: w, ratings: path, seed: 1, nproc: runtime.NumCPU(),
		model: filepath.Join(t.TempDir(), "m.bin")}, newTracer("test"))
	if err != nil {
		t.Fatal(err)
	}
	byLayer, rem := selfTimes(res.spans, res.root)
	total := rem
	for _, l := range layerNames {
		if byLayer[l] <= 0 {
			t.Errorf("layer %s has no self time", l)
		}
		total += byLayer[l]
	}
	root := res.spans[res.root-1]
	if wall := root.End - root.Start; math.Abs(total-wall) > 1e-9*wall {
		t.Fatalf("self times %.9f != wall %.9f", total, wall)
	}
}

// TestSelfTimesSplitsConcurrentChildren checks the attribution rule on a
// hand-built trace: overlapping children share the overlap.
func TestSelfTimesSplitsConcurrentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "ps", Start: 1, End: 9},
		{ID: 3, Parent: 2, Layer: "mf", Start: 2, End: 6},
		{ID: 4, Parent: 2, Layer: "comm", Start: 4, End: 8},
	}
	byLayer, rem := selfTimes(spans, 1)
	want := map[string]float64{"ps": 2, "mf": 3, "comm": 3}
	for l, v := range want {
		if math.Abs(byLayer[l]-v) > 1e-12 {
			t.Errorf("%s: %v, want %v", l, byLayer[l], v)
		}
	}
	if rem != 2 {
		t.Errorf("remainder %v, want 2", rem)
	}
}
