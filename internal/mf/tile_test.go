package mf

import (
	"sort"
	"testing"

	"hccmf/internal/sparse"
)

// tileOrder lays entries out the way the parameter server's async streams
// lay out one item slice, items [colLo, colHi): sparse.BlockOrder over
// TileAxis. It returns the tile count.
func tileOrder(entries []sparse.Rating, colLo, colHi, k int) int {
	tiles, first := TileAxis([]int{colLo, colHi}, k)
	sparse.BlockOrder(entries, sparse.Axis{N: 1}, tiles)
	return first[1] - first[0]
}

// TileAxis over several slices: every slice's tiles are at most
// TileCols(k) wide, start at the slice's first item, never straddle a
// slice cut, and are numbered consecutively across slices; laid out over
// the axis, slice j's entries are exactly the run of tiles
// [first[j], first[j+1]).
func TestTileOrderInvariants(t *testing.T) {
	const k = 2048 // 32-item tiles
	tc := TileCols(k)
	cuts := []int{0, 70, 71, 200, 264}
	tiles, first := TileAxis(cuts, k)
	if len(first) != len(cuts) || first[0] != 0 || tiles.N != first[len(cuts)-1] {
		t.Fatalf("first = %v, N = %d", first, tiles.N)
	}
	for j := 0; j+1 < len(cuts); j++ {
		if want := (cuts[j+1] - cuts[j] + tc - 1) / tc; first[j+1]-first[j] != want {
			t.Fatalf("slice %d has %d tiles, want %d", j, first[j+1]-first[j], want)
		}
		for i := cuts[j]; i < cuts[j+1]; i++ {
			if want := first[j] + (i-cuts[j])/tc; int(tiles.Of[i]) != want {
				t.Fatalf("item %d in tile %d, want %d", i, tiles.Of[i], want)
			}
		}
	}

	rng := sparse.NewRand(31)
	entries := make([]sparse.Rating, 3000)
	for i := range entries {
		entries[i] = sparse.Rating{U: int32(rng.Intn(200)), I: int32(rng.Intn(cuts[len(cuts)-1])), V: float32(i)}
	}
	off := sparse.BlockOrder(entries, sparse.Axis{N: 1}, tiles)
	for j := 0; j+1 < len(cuts); j++ {
		for _, e := range entries[off[first[j]]:off[first[j+1]]] {
			if int(e.I) < cuts[j] || int(e.I) >= cuts[j+1] {
				t.Fatalf("item %d in slice %d's run [%d,%d)", e.I, j, cuts[j], cuts[j+1])
			}
		}
	}
}

// tileOrder is a stable sort: it equals a reference stable sort by
// (tile, row, col) position for position, duplicate (U, I) keys (told apart
// by V) included.
func TestTileOrderMatchesStableSort(t *testing.T) {
	rng := sparse.NewRand(33)
	const colLo, cols = 7, 90
	entries := make([]sparse.Rating, 4000)
	for i := range entries {
		entries[i] = sparse.Rating{
			U: int32(3 + rng.Intn(30)),
			I: int32(colLo + rng.Intn(cols)),
			V: float32(i),
		}
	}
	for _, k := range []int{8, 4096} { // one tile; 16-item tiles
		checkTileOrder(t, entries, colLo, k)
	}
}

// checkTileOrder runs tileOrder over the slice [colLo, largest column]
// on a copy of entries and requires it to equal a reference stable sort
// by (tile, row, col), position for position, and to report the tile
// count the slice's width implies.
func checkTileOrder(t *testing.T, entries []sparse.Rating, colLo, k int) {
	t.Helper()
	got := append([]sparse.Rating(nil), entries...)
	want := append([]sparse.Rating(nil), entries...)
	tc := TileCols(k)
	sort.SliceStable(want, func(a, b int) bool {
		ta, tb := (int(want[a].I)-colLo)/tc, (int(want[b].I)-colLo)/tc
		if ta != tb {
			return ta < tb
		}
		if want[a].U != want[b].U {
			return want[a].U < want[b].U
		}
		return want[a].I < want[b].I
	})
	maxI := colLo
	for _, e := range entries {
		maxI = max(maxI, int(e.I))
	}
	if n, wantN := tileOrder(got, colLo, maxI+1, k), (maxI-colLo)/tc+1; n != wantN {
		t.Fatalf("k %d: ntiles = %d, want %d", k, n, wantN)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("k %d: position %d = %+v, stable sort has %+v", k, i, got[i], want[i])
		}
	}
}

// A sparse chunk whose few entries sit one or more tiles past colLo, in
// narrow row and column spans, still lands in the right tiles.
func TestTileOrderSparseFarFromColLo(t *testing.T) {
	const colLo, k = 5, 64
	tc := TileCols(k)
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
			checkTileOrder(t, entries, colLo, k)
		})
	}
}

func TestTileOrderSingleTileKeepsRowSort(t *testing.T) {
	rng := sparse.NewRand(32)
	entries := make([]sparse.Rating, 300)
	for i := range entries {
		entries[i] = sparse.Rating{U: int32(rng.Intn(50)), I: int32(rng.Intn(50)), V: 1}
	}
	want := append([]sparse.Rating(nil), entries...)
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].U != want[b].U {
			return want[a].U < want[b].U
		}
		return want[a].I < want[b].I
	})
	if n := tileOrder(entries, 0, 50, 8); n != 1 {
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
