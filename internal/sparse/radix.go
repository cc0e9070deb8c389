package sparse

import (
	"sort"
	"sync"
)

// Counting/radix sort for COO entry grids. SortByRow/SortByCol used to run
// interface-dispatched sort.Slice — O(NNZ log NNZ) with a closure call per
// comparison. The (row, col) key range is known, so two stable counting
// passes (least-significant key first) sort in O(NNZ + Rows + Cols) while
// touching the entry stream sequentially, which also speeds up every grid
// rebuild that re-sorts shards. Scratch histograms and the scatter buffer
// come from a pool, so steady-state sorting allocates nothing.

// sortScratch holds the reusable buffers of one counting sort: the two key
// histograms (reused via RowCountsInto/ColCountsInto) and the scatter
// destination of the first pass.
type sortScratch struct {
	rowCounts []int
	colCounts []int
	tmp       []Rating
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// sortFallbackFactor bounds the counting sort's histogram cost: when the
// index space is more than this factor larger than the entry count, a
// counting pass would be dominated by walking mostly-empty histograms and
// the comparison sort wins. The fallback is stable too, so both paths
// produce identical orderings.
const sortFallbackFactor = 8

// sortEntries sorts m.Entries stably by (U, I) when byRow, else by (I, U):
// two stable counting passes, or a stable comparison sort for very sparse
// index spaces.
func sortEntries(m *COO, byRow bool) {
	entries, rows, cols := m.Entries, m.Rows, m.Cols
	n := len(entries)
	if n < 2 {
		return
	}
	if int64(rows)+int64(cols) > sortFallbackFactor*int64(n) {
		if byRow {
			sort.SliceStable(entries, func(a, b int) bool {
				ea, eb := entries[a], entries[b]
				if ea.U != eb.U {
					return ea.U < eb.U
				}
				return ea.I < eb.I
			})
		} else {
			sort.SliceStable(entries, func(a, b int) bool {
				ea, eb := entries[a], entries[b]
				if ea.I != eb.I {
					return ea.I < eb.I
				}
				return ea.U < eb.U
			})
		}
		return
	}

	s := sortScratchPool.Get().(*sortScratch)
	if cap(s.tmp) < n {
		s.tmp = make([]Rating, n)
	}
	tmp := s.tmp[:n]
	s.rowCounts = countRatings(s.rowCounts, entries, rows, true)
	s.colCounts = countRatings(s.colCounts, entries, cols, false)

	if byRow {
		scatterByCol(tmp, entries, s.colCounts)
		scatterByRow(entries, tmp, s.rowCounts)
	} else {
		scatterByRow(tmp, entries, s.rowCounts)
		scatterByCol(entries, tmp, s.colCounts)
	}
	sortScratchPool.Put(s)
}

// countRatings fills dst (grown as needed to size) with per-row (byRow) or
// per-column entry counts, mirroring COO.RowCountsInto for raw slices.
func countRatings(dst []int, entries []Rating, size int, byRow bool) []int {
	if cap(dst) < size {
		dst = make([]int, size)
	}
	dst = dst[:size]
	for i := range dst {
		dst[i] = 0
	}
	if byRow {
		for _, e := range entries {
			dst[e.U]++
		}
	} else {
		for _, e := range entries {
			dst[e.I]++
		}
	}
	return dst
}

// scatterByRow stable-scatters src into dst ordered by U. counts must hold
// per-row entry counts on entry; it is consumed (turned into offsets).
func scatterByRow(dst, src []Rating, counts []int) {
	off := 0
	for r, c := range counts {
		counts[r] = off
		off += c
	}
	for _, e := range src {
		p := counts[e.U]
		counts[e.U] = p + 1
		dst[p] = e
	}
}

// scatterByCol stable-scatters src into dst ordered by I; see scatterByRow.
func scatterByCol(dst, src []Rating, counts []int) {
	off := 0
	for c, n := range counts {
		counts[c] = off
		off += n
	}
	for _, e := range src {
		p := counts[e.I]
		counts[e.I] = p + 1
		dst[p] = e
	}
}
