package mf

import (
	"testing"

	"hccmf/internal/obs"
)

// TestMeteredEnginesReport verifies the pool engines implement Metered and
// feed the counters: one Epoch call is one engine epoch and len(entries)
// updates. Skipped under -race: the engine set includes Hogwild, whose
// lock-free updates are intentionally racy (see internal/raceflag).
func TestMeteredEnginesReport(t *testing.T) {
	skipLockFreeUnderRace(t)
	f, m, h := allocModel(t, 1<<10)
	o := obs.NewObserver(64, nil)
	engines := []Engine{
		&FPSGD{Threads: 2},
		&Hogwild{Threads: 2},
		&Batched{Groups: 2},
	}
	epochs := 0
	for _, e := range engines {
		mtd, ok := e.(Metered)
		if !ok {
			t.Fatalf("%s does not implement Metered", e.Name())
		}
		mtd.SetMetrics(o.RunMetrics().EngineMetrics())
		e.Epoch(f, m, h)
		epochs++
		if got := o.Run.Epochs.Value(); got != int64(epochs) {
			t.Fatalf("after %s: epochs = %d, want %d", e.Name(), got, epochs)
		}
		if got := o.Run.Updates.Value(); got != int64(epochs*m.NNZ()) {
			t.Fatalf("after %s: updates = %d, want %d", e.Name(), got, epochs*m.NNZ())
		}
	}
	if got := o.Run.EngineEpochSeconds.Count(); got != int64(epochs) {
		t.Fatalf("engine epoch observations = %d, want %d", got, epochs)
	}
	// Detaching stops the flow.
	mtd := engines[0].(Metered)
	mtd.SetMetrics(nil)
	engines[0].Epoch(f, m, h)
	if got := o.Run.Epochs.Value(); got != int64(epochs) {
		t.Fatalf("detached engine still reported: epochs = %d", got)
	}
}

// Instrumented steady-state guards: attaching live metrics (counters, the
// epoch histogram, and a real wall clock) must not put the engines back on
// the allocator. This is the contract that makes always-on observability
// safe — see the design notes in internal/obs.

func TestInstrumentedFPSGDEpochZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, m, h := allocModel(t, 1<<14)
	o := obs.NewObserver(1<<10, nil)
	e := &FPSGD{Threads: 4}
	e.SetMetrics(o.RunMetrics().EngineMetrics())
	assertZeroAllocs(t, "FPSGD.Epoch(instrumented)", func() {
		e.Epoch(f, m, h)
	})
	if o.Run.Epochs.Value() == 0 || o.Run.Updates.Value() == 0 {
		t.Fatal("instrumentation recorded nothing")
	}
}

func TestInstrumentedHogwildEpochZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, m, h := allocModel(t, 1<<14)
	o := obs.NewObserver(1<<10, nil)
	e := &Hogwild{Threads: 4}
	e.SetMetrics(o.RunMetrics().EngineMetrics())
	assertZeroAllocs(t, "Hogwild.Epoch(instrumented)", func() {
		e.Epoch(f, m, h)
	})
	if o.Run.EngineEpochSeconds.Count() == 0 {
		t.Fatal("instrumentation recorded nothing")
	}
}
