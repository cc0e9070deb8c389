package mf

import (
	"runtime/debug"
	"testing"

	"hccmf/internal/raceflag"
	"hccmf/internal/sparse"
)

// Steady-state allocation guards: after one warm-up epoch (which may build
// grids, schedulers and worker pools), the hot training and evaluation
// paths must not allocate at all. Regressions here are exactly the GC
// pressure the kernel performance pass removed, so they fail loudly.
//
// The race detector instruments memory operations and changes allocation
// behaviour, so these run only in normal builds (see package raceflag).

func skipAllocGuardUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation guards measure normal builds; -race changes allocation behaviour")
	}
}

func allocModel(t *testing.T, nnz int) (*Factors, *sparse.COO, HyperParams) {
	t.Helper()
	m := trainSet(t, 200, 100, nnz, 11)
	f := NewFactorsInit(m.Rows, m.Cols, 16, m.MeanRating(), sparse.NewRand(1))
	h := HyperParams{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01}
	return f, m, h
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	// A GC cycle clears the runtime's parked-goroutine (sudog) caches, so a
	// collection mid-measurement makes the worker pools' channel parks
	// re-allocate a few runtime objects that are not the code's doing.
	// Disable GC for the measurement window to keep the guard deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // warm-up: first call may build caches and pools
	// The runtime grows its parked-goroutine capacity whenever a measurement
	// hits a new peak of simultaneous parks — a one-time fill, not a per-op
	// cost. Retrying separates the two: capacity fill reaches 0 once the
	// peak is covered, a genuine per-op allocation stays ≥1 every attempt.
	var avg float64
	for attempt := 0; attempt < 5; attempt++ {
		if avg = testing.AllocsPerRun(10, fn); avg == 0 {
			return
		}
	}
	t.Fatalf("%s: %v allocs/op in steady state, want 0", name, avg)
}

func TestUpdateOneZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, _, h := allocModel(t, 1<<10)
	p := f.P[:f.K]
	q := f.Q[:f.K]
	assertZeroAllocs(t, "UpdateOne", func() {
		UpdateOne(p, q, 3.5, h)
	})
}

// FPSGD is checked inline (the two lanes swept together, in the walk's
// reused lane scratch) and on a pool (one block per task).
func TestFPSGDEpochZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	for _, threads := range []int{1, 4} {
		f, m, h := allocModel(t, 1<<14)
		e := &FPSGD{Threads: threads}
		assertZeroAllocs(t, e.Name()+".Epoch", func() {
			e.Epoch(f, m, h)
		})
	}
}

func TestBatchedEpochZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, m, h := allocModel(t, 1<<14)
	e := &Batched{Groups: 4}
	assertZeroAllocs(t, "Batched.Epoch", func() {
		e.Epoch(f, m, h)
	})
}

func TestHogwildEpochZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, m, h := allocModel(t, 1<<14)
	e := &Hogwild{Threads: 4}
	assertZeroAllocs(t, "Hogwild.Epoch", func() {
		e.Epoch(f, m, h)
	})
}

func TestRMSEParallelZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	// Large enough to clear the serial-fallback threshold (1<<14 entries)
	// so the persistent evaluator pool is actually exercised.
	f, m, _ := allocModel(t, 1<<15)
	assertZeroAllocs(t, "RMSEParallel", func() {
		RMSEParallel(f, m.Entries, 4)
	})
}
