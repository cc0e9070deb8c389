package ps

import (
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
)

// Invariants of the parameter-server protocol that every mode must hold.

// Under Q-only, global P rows stay at their initial values until the final
// epoch's push lands them — the whole point of Strategy 1.
func TestGlobalPFrozenUntilFinalPush(t *testing.T) {
	full, confs := buildProblem(t, 80, 50, 3000, []float64{0.5, 0.5}, 61)
	cfg := defaultConfig(80, 50)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	initP := append([]float32(nil), c.Global().P...)
	const total = 6
	for e := 0; e < total-1; e++ {
		if err := c.RunEpoch(e, total); err != nil {
			t.Fatal(err)
		}
		for i := range initP {
			if c.Global().P[i] != initP[i] {
				t.Fatalf("epoch %d: global P[%d] changed before the final push", e, i)
			}
		}
	}
	if err := c.RunEpoch(total-1, total); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range initP {
		if c.Global().P[i] != initP[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("final push did not land P")
	}
}

// Rows of Q never touched by any training entry keep their initial values
// (delta folding must not disturb untouched parameters).
func TestUntouchedQRowsUnchanged(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 800, []float64{1}, 62)
	// Remove every rating of item 0 and item 39 from the shard.
	shard := confs[0].Shard
	kept := shard.Entries[:0]
	for _, e := range shard.Entries {
		if e.I != 0 && e.I != 39 {
			kept = append(kept, e)
		}
	}
	shard.Entries = kept
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.K
	q0 := append([]float32(nil), c.Global().Q[0*k:1*k]...)
	q39 := append([]float32(nil), c.Global().Q[39*k:40*k]...)
	if err := c.Train(5, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if c.Global().Q[i] != q0[i] {
			t.Fatalf("untouched item 0 row changed at %d", i)
		}
		if c.Global().Q[39*k+i] != q39[i] {
			t.Fatalf("untouched item 39 row changed at %d", i)
		}
	}
}

// Regression for the FP16 base-row bug: the fold must diff pushes against the
// encoding round-trip of the base Q, not the raw base. Diffing against the
// raw base made FP16 quantization error look like an update from every
// worker, so rows no worker trained drifted toward their FP16 rounding
// each epoch. An untouched row must be bit-identical after an FP16 epoch.
func TestUntouchedQRowFP16BitIdentical(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 800, []float64{0.5, 0.5}, 65)
	// Strip items 0 and 39 from every shard so no worker touches them.
	for _, conf := range confs {
		kept := conf.Shard.Entries[:0]
		for _, e := range conf.Shard.Entries {
			if e.I != 0 && e.I != 39 {
				kept = append(kept, e)
			}
		}
		conf.Shard.Entries = kept
	}
	cfg := defaultConfig(60, 40)
	cfg.Strategy = comm.Strategy{Encoding: comm.FP16, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.K
	q0 := append([]float32(nil), c.Global().Q[0*k:1*k]...)
	q39 := append([]float32(nil), c.Global().Q[39*k:40*k]...)
	if err := c.Train(3, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if got := c.Global().Q[i]; got != q0[i] {
			t.Fatalf("untouched item 0 row drifted under FP16 at %d: %v → %v", i, q0[i], got)
		}
		if got := c.Global().Q[39*k+i]; got != q39[i] {
			t.Fatalf("untouched item 39 row drifted under FP16 at %d: %v → %v", i, q39[i], got)
		}
	}
}

// With a single worker, the delta fold reduces to "take the worker's Q
// verbatim": training through the cluster equals training directly.
func TestSingleWorkerClusterMatchesDirectTraining(t *testing.T) {
	full, confs := buildProblem(t, 50, 30, 1000, []float64{1}, 63)
	cfg := defaultConfig(50, 30)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the cluster's init and train directly with the same engine.
	ref := c.Global().Clone()
	h := cfg.Hyper
	const total = 4
	for e := 0; e < total; e++ {
		if err := c.RunEpoch(e, total); err != nil {
			t.Fatal(err)
		}
		confs[0].Engine.Epoch(ref, confs[0].Shard, h)
	}
	got := c.Snapshot()
	for i := range ref.Q {
		if got.Q[i] != ref.Q[i] {
			t.Fatalf("Q[%d] diverged: %v vs %v", i, got.Q[i], ref.Q[i])
		}
	}
	for i := range ref.P {
		if got.P[i] != ref.P[i] {
			t.Fatalf("P[%d] diverged", i)
		}
	}
}

// Snapshot never aliases live training state.
func TestSnapshotIsIsolated(t *testing.T) {
	full, confs := buildProblem(t, 40, 30, 500, []float64{1}, 64)
	cfg := defaultConfig(40, 30)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	before := mf.RMSE(snap, full.Entries)
	if err := c.Train(5, nil); err != nil {
		t.Fatal(err)
	}
	if after := mf.RMSE(snap, full.Entries); after != before {
		t.Fatal("snapshot changed after further training")
	}
}
