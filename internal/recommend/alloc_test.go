package recommend

import (
	"runtime/debug"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/raceflag"
	"hccmf/internal/sparse"
)

// Steady-state allocation guards for the serving hot path, the same
// discipline internal/mf/alloc_test.go applies to training: after warm-up
// (pool construction, sync.Pool fills), scoring a request must not
// allocate at all. The race detector changes allocation behaviour, so
// these run only in normal builds.

func skipAllocGuardUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation guards measure normal builds; -race changes allocation behaviour")
	}
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	// GC off for the window: a collection mid-measurement drains the
	// sync.Pool and the runtime's parked-goroutine caches, charging one-time
	// refills to the op under measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // warm-up
	var avg float64
	for attempt := 0; attempt < 5; attempt++ {
		if avg = testing.AllocsPerRun(10, fn); avg == 0 {
			return
		}
	}
	t.Fatalf("%s: %v allocs/op in steady state, want 0", name, avg)
}

// servingModel builds a trained-shaped factor model and seen set sized
// like a small production shard.
func servingModel(t *testing.T, users, items, k int) (*mf.Factors, *sparse.COO) {
	t.Helper()
	rng := sparse.NewRand(3)
	f := mf.NewFactorsInit(users, items, k, 3.5, rng)
	train := sparse.NewCOO(users, items, 0)
	for c := 0; c < users*4; c++ {
		train.Add(int32(rng.Intn(users)), int32(rng.Intn(items)), 1)
	}
	return f, train
}

// TestTopNIntoZeroAllocs guards the one-shard, one-worker shape: each
// query is a single full-range scan on the pool, as the CLIs' one-user
// queries are on a one-CPU host.
func TestTopNIntoZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, train := servingModel(t, 200, 500, 16)
	const n = 10
	svc, err := NewService(f, 200, 500, ServiceConfig{Workers: 1, Shards: 1, MaxN: n})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	buf := make([]Item, 0, n)
	var u int32
	assertZeroAllocs(t, "Service.TopNInto one shard", func() {
		if _, err := svc.TopNInto(u%200, n, buf); err != nil {
			t.Fatal(err)
		}
		u++
	})
}

func TestServiceTopNIntoZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, train := servingModel(t, 200, 500, 16)
	svc, err := NewService(f, 200, 500, ServiceConfig{Workers: 4, Shards: 4, MaxN: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	const n = 10
	buf := make([]Item, 0, n)
	var u int32
	assertZeroAllocs(t, "Service.TopNInto", func() {
		if _, err := svc.TopNInto(u%200, n, buf); err != nil {
			t.Fatal(err)
		}
		u++
	})
}

func TestServiceTopNBatchZeroAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	f, train := servingModel(t, 200, 500, 16)
	svc, err := NewService(f, 200, 500, ServiceConfig{Workers: 4, Shards: 4, MaxN: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	const n, batch = 10, 32
	users := make([]int32, batch)
	bufs := make([][]Item, batch)
	for i := range users {
		users[i] = int32(i * 5)
		bufs[i] = make([]Item, 0, n)
	}
	assertZeroAllocs(t, "Service.TopNBatch", func() {
		if err := svc.TopNBatch(users, n, bufs); err != nil {
			t.Fatal(err)
		}
	})
}
