package mf

import (
	"testing"

	"hccmf/internal/sparse"
)

// tileOrder invariants (the parameter server's async streams depend on
// them): the reorder is a permutation, tile indices are non-decreasing
// across the slice, and entries within one tile keep (row, col) order.
func TestTileOrderInvariants(t *testing.T) {
	rng := sparse.NewRand(31)
	const colLo, cols, k = 100, 400, 32
	entries := make([]sparse.Rating, 3000)
	for i := range entries {
		entries[i] = sparse.Rating{
			U: int32(rng.Intn(200)),
			I: int32(colLo + rng.Intn(cols)),
			V: rng.Float32(),
		}
	}
	// Budget sized to force several tiles: 40 columns per tile → 10 tiles.
	budget := 40 * 4 * k
	want := append([]sparse.Rating(nil), entries...)
	ntiles := tileOrder(entries, colLo, k, budget)
	if wantTiles := (cols + 39) / 40; ntiles != wantTiles {
		t.Fatalf("ntiles = %d, want %d", ntiles, wantTiles)
	}

	// Permutation: the reorder must preserve the entry multiset exactly.
	// (The row sort inside tileOrder is not stable for duplicate (U, I)
	// keys, so a positional comparison against a reference sort would
	// over-constrain it.)
	tc := tileCols(k, budget)
	key := func(e sparse.Rating) (int, int32, int32) {
		return (int(e.I) - colLo) / tc, e.U, e.I
	}
	seen := make(map[sparse.Rating]int, len(want))
	for _, e := range want {
		seen[e]++
	}
	for _, e := range entries {
		seen[e]--
		if seen[e] < 0 {
			t.Fatalf("entry %+v appears more often after tileOrder", e)
		}
	}
	for e, n := range seen {
		if n != 0 {
			t.Fatalf("entry %+v lost by tileOrder", e)
		}
	}

	// Tile-monotone and (row, col)-sorted within each tile, checked directly.
	for i := 1; i < len(entries); i++ {
		tp, up, ip := key(entries[i-1])
		tn, un, in := key(entries[i])
		if tn < tp {
			t.Fatalf("tile order broken at %d: %d after %d", i, tn, tp)
		}
		if tn == tp && (un < up || (un == up && in < ip)) {
			t.Fatalf("(row,col) order broken inside tile %d at %d", tn, i)
		}
	}
}

func TestTileOrderSingleTileKeepsRowSort(t *testing.T) {
	rng := sparse.NewRand(32)
	entries := make([]sparse.Rating, 300)
	for i := range entries {
		entries[i] = sparse.Rating{U: int32(rng.Intn(50)), I: int32(rng.Intn(50)), V: 1}
	}
	want := append([]sparse.Rating(nil), entries...)
	sortEntriesByRow(want)
	if n := tileOrder(entries, 0, 8, tileBytesDefault); n != 1 {
		t.Fatalf("ntiles = %d, want 1 (50 cols fit one default tile)", n)
	}
	for i := range entries {
		if entries[i] != want[i] {
			t.Fatalf("single-tile order diverged from row sort at %d", i)
		}
	}
}

func TestTileColsBounds(t *testing.T) {
	if tc := tileCols(32, tileBytesDefault); tc != tileBytesDefault/(4*32) {
		t.Fatalf("tileCols(32, default) = %d", tc)
	}
	if tc := tileCols(1<<20, 1); tc != 1 {
		t.Fatalf("tileCols tiny budget = %d, want 1", tc)
	}
	if tc := tileCols(0, 1024); tc != 1 {
		t.Fatalf("tileCols k=0 = %d, want 1", tc)
	}
}
