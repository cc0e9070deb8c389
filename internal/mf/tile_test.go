package mf

import (
	"sort"
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

// tileOrder is a stable sort: it equals a reference stable sort by
// (tile, row, col) position for position, duplicate (U, I) keys (told apart
// by V) included.
func TestTileOrderMatchesStableSort(t *testing.T) {
	rng := sparse.NewRand(33)
	const colLo, cols, k = 7, 90, 8
	entries := make([]sparse.Rating, 4000)
	for i := range entries {
		entries[i] = sparse.Rating{
			U: int32(3 + rng.Intn(30)),
			I: int32(colLo + rng.Intn(cols)),
			V: float32(i),
		}
	}
	for _, budget := range []int{tileBytesDefault, 16 * 4 * k} {
		checkTileOrder(t, entries, colLo, k, budget)
	}
}

// checkTileOrder runs tileOrder on a copy of entries and requires it to
// equal a reference stable sort by (tile, row, col), position for
// position, and to report the tile count the largest column implies.
func checkTileOrder(t *testing.T, entries []sparse.Rating, colLo, k, budget int) {
	t.Helper()
	got := append([]sparse.Rating(nil), entries...)
	want := append([]sparse.Rating(nil), entries...)
	tc := tileCols(k, budget)
	sort.SliceStable(want, func(a, b int) bool {
		ta, tb := (int(want[a].I)-colLo)/tc, (int(want[b].I)-colLo)/tc
		if ta != tb {
			return ta < tb
		}
		return lessByRow(want[a], want[b])
	})
	maxI := colLo
	for _, e := range entries {
		maxI = max(maxI, int(e.I))
	}
	if n, wantN := tileOrder(got, colLo, k, budget), (maxI-colLo)/tc+1; n != wantN {
		t.Fatalf("budget %d: ntiles = %d, want %d", budget, n, wantN)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("budget %d: position %d = %+v, stable sort has %+v", budget, i, got[i], want[i])
		}
	}
}

// A sparse chunk whose few entries sit one or more tiles past colLo, in
// narrow row and column spans, needs more tile slots than its column or
// row span provides: the count buffer must be sized for the tile pass too.
func TestTileOrderSparseFarFromColLo(t *testing.T) {
	const colLo, k = 5, 64
	tc := tileCols(k, tileBytesDefault)
	cases := map[string][]sparse.Rating{
		"one rating one tile past colLo": {
			{U: 0, I: int32(colLo + tc), V: 1},
		},
		"one rating many tiles past colLo": {
			{U: 9, I: int32(colLo + 7*tc + 3), V: 1},
		},
		"two adjacent columns, one row, far tile": {
			{U: 4, I: int32(colLo + 3*tc + 1), V: 1},
			{U: 4, I: int32(colLo + 3*tc), V: 2},
		},
		"two columns straddling a tile edge": {
			{U: 1, I: int32(colLo + 2*tc), V: 1},
			{U: 0, I: int32(colLo + 2*tc - 1), V: 2},
			{U: 0, I: int32(colLo + 2*tc), V: 3},
		},
	}
	for name, entries := range cases {
		t.Run(name, func(t *testing.T) {
			checkTileOrder(t, entries, colLo, k, tileBytesDefault)
		})
	}
}

// BenchmarkTileOrder orders one async-stream chunk at the wide workload's
// shape: 1.8 M ratings over 27,698 rows and a 6,563-item slice at k = 64.
func BenchmarkTileOrder(b *testing.B) {
	rng := sparse.NewRand(34)
	src := make([]sparse.Rating, 1_800_000)
	for i := range src {
		src[i] = sparse.Rating{U: int32(rng.Intn(27698)), I: int32(rng.Intn(6563)), V: 1}
	}
	entries := make([]sparse.Rating, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(entries, src)
		TileOrder(entries, 0, 64)
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
