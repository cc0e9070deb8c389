package recommend

import (
	"sort"
	"testing"

	"hccmf/internal/sparse"
)

// naiveTopN is the oracle: score every unseen item, full-sort by the
// documented order (descending score, ascending ID on ties), take the
// first n. Service.TopNInto and Service.TopNBatch must match it exactly
// on every randomized model.
func naiveTopN(model Scorer, seen *seenIndex, u int32, items, n int) []Item {
	all := make([]Item, 0, items)
	for i := 0; i < items; i++ {
		if seen.has(u, int32(i)) {
			continue
		}
		all = append(all, Item{ID: int32(i), Score: model.Predict(u, int32(i))})
	}
	sort.Slice(all, func(a, b int) bool { return weaker(all[b], all[a]) })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func equalItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopNMatchesNaiveReference drives randomized models — including
// heavily quantized scores (many duplicates) and users with every item
// seen — through Service.TopNInto and Service.TopNBatch at random shard
// counts, comparing each against the full-sort oracle.
func TestTopNMatchesNaiveReference(t *testing.T) {
	rng := sparse.NewRand(77)
	for trial := 0; trial < 30; trial++ {
		users := 2 + rng.Intn(6)
		items := 1 + rng.Intn(60)
		// Quantize scores coarsely so duplicate scores are the norm, not
		// the exception: levels ∈ {0..3} with ~15 items per level.
		levels := 1 + rng.Intn(4)
		s := newTable(users, items, func(u, i int) float32 {
			return float32(int(rng.Uint64() % uint64(levels)))
		})
		svc, err := NewService(s, users, items, ServiceConfig{Workers: 3, Shards: 1 + rng.Intn(5), MaxN: items + 2})
		if err != nil {
			t.Fatal(err)
		}
		// Random seen interactions; user 0 of every trial has seen
		// everything, so its top-N must be empty.
		train := sparse.NewCOO(users, items, 0)
		for c := 0; c < users*items/3; c++ {
			train.Add(int32(rng.Intn(users)), int32(rng.Intn(items)), 1)
		}
		for i := 0; i < items; i++ {
			train.Add(0, int32(i), 1)
		}
		if err := svc.MarkSeen(train); err != nil {
			t.Fatal(err)
		}

		n := 1 + rng.Intn(items+2)
		allUsers := make([]int32, users)
		bufs := make([][]Item, users)
		for u := range allUsers {
			allUsers[u] = int32(u)
			bufs[u] = make([]Item, 0, n)
		}
		if err := svc.TopNBatch(allUsers, n, bufs); err != nil {
			t.Fatal(err)
		}
		svcBuf := make([]Item, 0, n)
		for u := 0; u < users; u++ {
			want := naiveTopN(s, &svc.seen, int32(u), items, n)
			sgot, err := svc.TopNInto(int32(u), n, svcBuf)
			if err != nil {
				t.Fatal(err)
			}
			if !equalItems(sgot, want) {
				t.Fatalf("trial %d user %d n=%d: Service.TopNInto %v != oracle %v", trial, u, n, sgot, want)
			}
			if u == 0 && len(sgot) != 0 {
				t.Fatalf("trial %d: all-seen user got items %v", trial, sgot)
			}
			if !equalItems(bufs[u], want) {
				t.Fatalf("trial %d user %d n=%d: Service.TopNBatch %v != oracle %v", trial, u, n, bufs[u], want)
			}
		}
		svc.Close()
	}
}
