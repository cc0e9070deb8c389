package recommend

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

func testService(t *testing.T, users, items, k int, cfg ServiceConfig) (*Service, *mf.Factors) {
	t.Helper()
	f := mf.NewFactorsInit(users, items, k, 3.5, sparse.NewRand(11))
	svc, err := NewService(f, users, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, f
}

func TestServiceValidation(t *testing.T) {
	svc, _ := testService(t, 10, 20, 4, ServiceConfig{Workers: 2, MaxN: 5})
	if _, err := NewService(nil, 1, 1, ServiceConfig{}); err == nil {
		t.Fatal("nil model accepted")
	}
	buf := make([]Item, 0, 5)
	if _, err := svc.TopNInto(-1, 3, buf); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := svc.TopNInto(10, 3, buf); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := svc.TopNInto(0, 0, buf); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := svc.TopNInto(0, 6, buf); err == nil {
		t.Fatal("n beyond MaxN accepted")
	}
	if err := svc.TopNBatch([]int32{0, 99}, 3, make([][]Item, 2)); err == nil {
		t.Fatal("batch with bad user accepted")
	}
	if err := svc.TopNBatch([]int32{0, 1}, 3, make([][]Item, 1)); err == nil {
		t.Fatal("batch with short buffer list accepted")
	}
	if err := svc.Reload(nil, 10, 20); err == nil {
		t.Fatal("nil reload accepted")
	}
	if err := svc.Reload(svc.model.Load().s, 11, 20); err == nil {
		t.Fatal("dim-mismatched reload accepted")
	}
}

// TestServiceShardsMatchNaiveReference: the sharded pool path must return
// exactly the full-sort oracle's answer, for several shard counts.
func TestServiceShardsMatchNaiveReference(t *testing.T) {
	const users, items, k = 40, 123, 8
	f := mf.NewFactorsInit(users, items, k, 3.5, sparse.NewRand(21))
	train := sparse.NewCOO(users, items, 0)
	rng := sparse.NewRand(22)
	for c := 0; c < 300; c++ {
		train.Add(int32(rng.Intn(users)), int32(rng.Intn(items)), 1)
	}
	for _, shards := range []int{1, 3, 7, 16} {
		svc, err := NewService(f, users, items, ServiceConfig{Workers: 3, Shards: shards, MaxN: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.MarkSeen(train); err != nil {
			t.Fatal(err)
		}
		buf := make([]Item, 0, 10)
		for u := int32(0); u < users; u++ {
			want := naiveTopN(f, &svc.seen, u, items, 10)
			got, err := svc.TopNInto(u, 10, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !equalItems(got, want) {
				t.Fatalf("shards=%d user %d: service %v != oracle %v", shards, u, got, want)
			}
		}
		svc.Close()
	}
}

// TestServiceReloadBitIdentical is the regression test the serving layer
// is pinned by: a no-op reload (same bytes round-tripped through the model
// persistence format) must leave every score bit-identical.
func TestServiceReloadBitIdentical(t *testing.T) {
	const users, items, k, n = 30, 80, 8, 10
	svc, f := testService(t, users, items, k, ServiceConfig{Workers: 2, Shards: 3, MaxN: n})

	before := make([][]Item, users)
	buf := make([]Item, 0, n)
	for u := int32(0); u < users; u++ {
		got, err := svc.TopNInto(u, n, buf)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = append([]Item(nil), got...)
	}

	// Round-trip the model through WriteFactors/ReadFactors — exactly what
	// the daemon's /reload does with the file on disk.
	var disk bytes.Buffer
	if err := mf.WriteFactors(&disk, f); err != nil {
		t.Fatal(err)
	}
	reloaded, err := mf.ReadFactors(&disk)
	if err != nil {
		t.Fatal(err)
	}
	gen := svc.Generation()
	if err := svc.Reload(reloaded, reloaded.M, reloaded.N); err != nil {
		t.Fatal(err)
	}
	if svc.Generation() != gen+1 {
		t.Fatalf("generation %d after reload, want %d", svc.Generation(), gen+1)
	}

	for u := int32(0); u < users; u++ {
		got, err := svc.TopNInto(u, n, buf)
		if err != nil {
			t.Fatal(err)
		}
		for idx := range before[u] {
			if got[idx].ID != before[u][idx].ID ||
				math.Float32bits(got[idx].Score) != math.Float32bits(before[u][idx].Score) {
				t.Fatalf("user %d rank %d: %+v after no-op reload, want bit-identical %+v",
					u, idx, got[idx], before[u][idx])
			}
		}
	}
}

// TestServiceConcurrentQueriesAndReload exercises the request path under
// -race: concurrent single and batch queries interleaved with reloads and
// a correctness check that every response comes entirely from one of the
// two models (no torn reads across the atomic swap).
func TestServiceConcurrentQueriesAndReload(t *testing.T) {
	const users, items, k, n = 20, 60, 4, 5
	svc, f := testService(t, users, items, k, ServiceConfig{Workers: 4, Shards: 2, MaxN: n})
	f2 := f.Clone()
	for i := range f2.P {
		f2.P[i] *= 2
	}

	var none seenIndex

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]Item, 0, n)
			usersBatch := []int32{1, 3, 5}
			bufs := [][]Item{make([]Item, 0, n), make([]Item, 0, n), make([]Item, 0, n)}
			for iter := 0; iter < 200; iter++ {
				u := int32((g*7 + iter) % users)
				got, err := svc.TopNInto(u, n, buf)
				if err != nil {
					t.Error(err)
					return
				}
				w1 := naiveTopN(f, &none, u, items, n)
				w2 := naiveTopN(f2, &none, u, items, n)
				if !equalItems(got, w1) && !equalItems(got, w2) {
					t.Errorf("user %d: response %v matches neither model (%v / %v)", u, got, w1, w2)
					return
				}
				if err := svc.TopNBatch(usersBatch, n, bufs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 100; iter++ {
			m := f
			if iter%2 == 0 {
				m = f2
			}
			if err := svc.Reload(m, users, items); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
