package sparse

import (
	"cmp"
	"slices"
	"testing"
)

func shardMatrix(t *testing.T, rows, cols, nnz int, seed uint64) *COO {
	t.Helper()
	rng := NewRand(seed)
	m := NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1+4*rng.Float32())
	}
	return m
}

// TestRowShardsMatchesCSRGather pins RowShards to the per-worker CSR gather
// it replaced: same slices, same shard entries in the same order.
func TestRowShardsMatchesCSRGather(t *testing.T) {
	m := shardMatrix(t, 120, 40, 3000, 7)
	weights := []float64{0.4, 0.3, 0.2, 0.1}

	slices, shards, err := RowShards(m, weights)
	if err != nil {
		t.Fatal(err)
	}

	csr := NewCSRFromCOO(m)
	wantSlices, err := CutRowGrid(csr, weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != len(wantSlices) {
		t.Fatalf("%d slices, want %d", len(slices), len(wantSlices))
	}
	for i := range slices {
		if slices[i] != wantSlices[i] {
			t.Fatalf("slice %d = %+v, want %+v", i, slices[i], wantSlices[i])
		}
	}
	for i, sl := range wantSlices {
		var want []Rating
		for r := sl.Lo; r < sl.Hi; r++ {
			for p := csr.RowPtr[r]; p < csr.RowPtr[r+1]; p++ {
				want = append(want, Rating{U: int32(r), I: csr.Col[p], V: csr.Val[p]})
			}
		}
		got := shards[i]
		if got.Rows != m.Rows || got.Cols != m.Cols {
			t.Fatalf("shard %d dims %dx%d, want %dx%d", i, got.Rows, got.Cols, m.Rows, m.Cols)
		}
		if len(got.Entries) != len(want) {
			t.Fatalf("shard %d has %d entries, want %d", i, len(got.Entries), len(want))
		}
		for j := range want {
			if got.Entries[j] != want[j] {
				t.Fatalf("shard %d entry %d = %+v, want %+v", i, j, got.Entries[j], want[j])
			}
		}
	}
}

// TestRowShardsAppendIsolation asserts the capacity cap on shard views:
// growing one shard (as ps eviction does when an heir absorbs a dead
// worker's entries) must reallocate, never overwrite a neighbouring shard
// in the shared backing array.
func TestRowShardsAppendIsolation(t *testing.T) {
	m := shardMatrix(t, 60, 20, 1200, 9)
	_, shards, err := RowShards(m, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || len(shards[1].Entries) == 0 {
		t.Fatalf("want 2 non-empty shards, got %d", len(shards))
	}
	neighbour := shards[1].Entries[0]
	poison := Rating{U: 0, I: 0, V: -999}
	shards[0].Entries = append(shards[0].Entries, poison)
	if shards[1].Entries[0] != neighbour {
		t.Fatalf("appending to shard 0 corrupted shard 1: %+v", shards[1].Entries[0])
	}
}

// TestRowShardsBadWeights propagates cut errors.
func TestRowShardsBadWeights(t *testing.T) {
	m := shardMatrix(t, 10, 10, 50, 3)
	if _, _, err := RowShards(m, nil); err == nil {
		t.Fatal("nil weights accepted")
	}
	if _, _, err := RowShards(m, []float64{0.5, -0.5}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestRowShardsMatchesStableSort checks the parallel counting sort against
// a serial oracle, a stable sort by row, on inputs of 300k entries, which
// are cut into several chunks whenever GOMAXPROCS > 1: the shards, laid
// end to end, are the stable sort, and each shard holds exactly its
// slice's rows. Power-law rows put most ratings in a few hot rows.
func TestRowShardsMatchesStableSort(t *testing.T) {
	for _, tc := range []struct {
		name     string
		powerLaw bool
	}{{"uniform", false}, {"power-law", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const rows, cols, nnz = 20_000, 3000, 300_000
			rng := NewRand(11)
			m := NewCOO(rows, cols, nnz)
			for i := 0; i < nnz; i++ {
				u := rng.Float64()
				if tc.powerLaw {
					u = u * u * u * u
				}
				m.Add(int32(float64(rows)*u), int32(rng.Intn(cols)), float32(i))
			}
			want := append([]Rating(nil), m.Entries...)
			slices.SortStableFunc(want, func(x, y Rating) int { return cmp.Compare(x.U, y.U) })

			cut, shards, err := RowShards(m, []float64{0.5, 0.3, 0.2})
			if err != nil {
				t.Fatal(err)
			}
			var got []Rating
			for i, sh := range shards {
				for _, e := range sh.Entries {
					if int(e.U) < cut[i].Lo || int(e.U) >= cut[i].Hi {
						t.Fatalf("shard %d holds row %d outside its slice %+v", i, e.U, cut[i])
					}
				}
				got = append(got, sh.Entries...)
			}
			if !slices.Equal(got, want) {
				t.Fatal("shards laid end to end differ from the stable sort by row")
			}
		})
	}
}

// TestChunkCountBoundsScratch checks that the chunks' histograms together
// never hold more than one counter per histPerEntry entries, once a single
// chunk's histogram fits that bound, at the GOMAXPROCS the test runs at
// (CI runs the sparse suite at 1, 2, 4 and 8).
func TestChunkCountBoundsScratch(t *testing.T) {
	for _, tc := range []struct{ n, keys int }{
		{300_000, 500}, {300_000, 30_000}, {1 << 20, 1 << 17}, {1 << 22, 1 << 16}, {5_000_000, 24_000},
	} {
		nch := chunkCount(tc.n, tc.keys)
		if nch < 1 || nch*tc.keys > max(tc.keys, tc.n/histPerEntry) {
			t.Fatalf("n=%d keys=%d: %d chunks hold %d counters, over %d", tc.n, tc.keys, nch,
				nch*tc.keys, tc.n/histPerEntry)
		}
	}
	if got := chunkCount(1<<20, 1<<17); got != 1 {
		t.Fatalf("chunkCount(1<<20, 1<<17) = %d, want 1", got)
	}
}
