package sparse

import (
	"sort"
	"testing"
)

// refSortByRow is the reference ordering: stable comparison sort by
// (U, I). The counting sort and the degenerate-shape fallback must both
// reproduce it exactly, including the relative order of duplicate (U, I)
// keys with different values.
func refSortByRow(e []Rating) {
	sort.SliceStable(e, func(a, b int) bool {
		if e[a].U != e[b].U {
			return e[a].U < e[b].U
		}
		return e[a].I < e[b].I
	})
}

func refSortByCol(e []Rating) {
	sort.SliceStable(e, func(a, b int) bool {
		if e[a].I != e[b].I {
			return e[a].I < e[b].I
		}
		return e[a].U < e[b].U
	})
}

// taggedCOO tags each value with its insertion index so stability
// violations are visible on duplicate (row, col) keys.
func taggedCOO(rows, cols, nnz int, seed uint64) *COO {
	rng := NewRand(seed)
	m := NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), float32(i))
	}
	return m
}

func TestSortByRowMatchesStableReference(t *testing.T) {
	for _, tc := range []struct{ rows, cols, nnz int }{
		{50, 40, 2000},   // dense in keys: many duplicate (row,col) pairs
		{100, 80, 300},   // sparse
		{3, 3, 500},      // tiny key space, heavy duplication
		{5000, 4000, 50}, // degenerate: falls back to comparison sort
		{1, 1, 10},
		{10, 10, 0},
		{10, 10, 1},
	} {
		m := taggedCOO(tc.rows, tc.cols, max(tc.nnz, 0), 7)
		want := append([]Rating(nil), m.Entries...)
		refSortByRow(want)
		m.SortByRow()
		for i := range want {
			if m.Entries[i] != want[i] {
				t.Fatalf("%dx%d/%d: entry %d = %v, want %v",
					tc.rows, tc.cols, tc.nnz, i, m.Entries[i], want[i])
			}
		}
	}
}

func TestSortByColMatchesStableReference(t *testing.T) {
	for _, tc := range []struct{ rows, cols, nnz int }{
		{50, 40, 2000},
		{4, 4, 600},
		{4000, 5000, 50}, // fallback path
	} {
		m := taggedCOO(tc.rows, tc.cols, tc.nnz, 11)
		want := append([]Rating(nil), m.Entries...)
		refSortByCol(want)
		m.SortByCol()
		for i := range want {
			if m.Entries[i] != want[i] {
				t.Fatalf("%dx%d/%d: entry %d = %v, want %v",
					tc.rows, tc.cols, tc.nnz, i, m.Entries[i], want[i])
			}
		}
	}
}

func TestSortReusesPooledScratch(t *testing.T) {
	// Two back-to-back sorts of same-size matrices must hit the pooled
	// scratch; the second sort should not grow the buffers. (We cannot
	// assert zero allocs — the pool is shared — but output correctness
	// under reuse is the property that matters.)
	a := taggedCOO(64, 64, 4096, 3)
	b := taggedCOO(64, 64, 4096, 4)
	a.SortByRow()
	want := append([]Rating(nil), b.Entries...)
	refSortByRow(want)
	b.SortByRow()
	for i := range want {
		if b.Entries[i] != want[i] {
			t.Fatalf("pooled-scratch reuse corrupted sort at %d", i)
		}
	}
}

func TestRowColCountsInto(t *testing.T) {
	m := taggedCOO(30, 20, 500, 9)
	wantR, wantC := m.RowCounts(), m.ColCounts()

	buf := make([]int, 0, 64) // capacity covers both dims
	gotR := m.RowCountsInto(buf)
	if len(gotR) != m.Rows {
		t.Fatalf("RowCountsInto len %d, want %d", len(gotR), m.Rows)
	}
	for i := range wantR {
		if gotR[i] != wantR[i] {
			t.Fatalf("row %d: %d != %d", i, gotR[i], wantR[i])
		}
	}
	// Reuse the same dirty buffer: counts must be reset, not accumulated.
	gotC := m.ColCountsInto(gotR)
	for i := range wantC {
		if gotC[i] != wantC[i] {
			t.Fatalf("col %d: %d != %d", i, gotC[i], wantC[i])
		}
	}
	// Too-small buffer must allocate, not panic.
	small := make([]int, 2)
	if got := m.RowCountsInto(small); len(got) != m.Rows {
		t.Fatalf("grow path returned len %d", len(got))
	}
}

func TestCheckRangeMatchesAppend(t *testing.T) {
	m := NewCOO(3, 4, 0)
	for _, c := range []struct{ u, i int32 }{{-1, 0}, {3, 0}, {0, -1}, {0, 4}} {
		appendErr := m.Append(c.u, c.i, 1)
		checkErr := CheckRange(c.u, c.i, m.Rows, m.Cols)
		if appendErr == nil || checkErr == nil {
			t.Fatalf("(%d,%d): expected errors, got %v / %v", c.u, c.i, appendErr, checkErr)
		}
		if appendErr.Error() != checkErr.Error() {
			t.Fatalf("(%d,%d): texts differ: %q vs %q", c.u, c.i, appendErr, checkErr)
		}
	}
	if err := CheckRange(2, 3, 3, 4); err != nil {
		t.Fatalf("in-range coordinate rejected: %v", err)
	}
}
