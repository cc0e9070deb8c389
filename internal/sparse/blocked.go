package sparse

import (
	"errors"
	"fmt"
)

// Blocked ratings. Every block-structured path lays its ratings out with
// the one builder here, BlockOrder: the mf block walk behind FPSGD,
// Batched and DSGD (through NewBlockGrid), and the parameter server's
// async streams, whose blocks are the Q tiles of each item slice. A
// layout is one backing array with an offset per block, built in place,
// so it replaces the shard's order instead of sitting beside it.

// Axis maps one index axis (rows or columns) onto N blocks: index x lies
// in block Of[x]. A nil Of puts every index in block 0.
type Axis struct {
	Of []int32
	N  int
}

// EvenAxis cuts the band [lo, hi) of an axis into n blocks of equal
// width: index x lies in block ⌊(x−lo)·n/(hi−lo)⌋. Of covers [0, hi);
// indices below lo must not occur.
func EvenAxis(lo, hi, n int) Axis {
	of := make([]int32, hi)
	for x := lo; x < hi; x++ {
		of[x] = int32(int64(x-lo) * int64(n) / int64(hi-lo))
	}
	return Axis{Of: of, N: n}
}

// at reports the block holding index x.
func (a Axis) at(x int32) int {
	if a.Of == nil {
		return 0
	}
	return int(a.Of[x])
}

// BlockOrder reorders entries in place into block order and returns the
// block offsets. Entry e lies in block rows.at(e.U)·cols.N + cols.at(e.I);
// blocks follow each other in that index order, block b is
// entries[off[b]:off[b+1]], and inside a block entries run in (row, col)
// order, stable for repeated cells. A stable counting pass scatters the
// entries by block into a scratch array, and sortRowCol puts each block
// in (row, col) order with counting passes over its own row and column
// spans, so that work stays in cache. It runs in time linear in the
// entries plus the key ranges. Cold path: it runs once per layout, so it
// allocates its scratch locally.
//
// The passes run in parallel (chunks.go) and the output is the same at
// any GOMAXPROCS. The entries are counted by block in chunks. When they
// already come block row by block row — a row-major shard, the order
// shards are cut in — and there are several block rows, each block row is
// placed on its own, through a scratch of one block row, and the block
// rows are dealt to the workers in contiguous runs of about equal entry
// count. Otherwise each chunk scatters its own entries into one scratch
// array at chunk-major cursors, and the blocks' sorts are dealt out in
// contiguous runs of about equal entry count: on the async streams' tile
// axis, whose item slices are cut by rating count, those runs fall at
// about the slices' bounds.
func BlockOrder(entries []Rating, rows, cols Axis) []int {
	nb := rows.N * cols.N
	off := make([]int, nb+1)
	n := len(entries)
	if n == 0 {
		return off
	}
	nch := chunkCount(n, nb)
	// One chunk counts straight into the offsets, which the pass below
	// then turns into prefix sums in place.
	cnt := off[1:]
	if nch > 1 {
		cnt = make([]int, nch*nb)
	}
	// firstRow and lastRow are each chunk's first and last block row, or
	// -1 in lastRow when the chunk's block rows ever decrease.
	firstRow, lastRow := make([]int, nch), make([]int, nch)
	eachChunk(n, nch, func(c, lo, hi int) {
		h := cnt[c*nb : (c+1)*nb]
		ok, last := true, rows.at(entries[lo].U)
		firstRow[c] = last
		for _, e := range entries[lo:hi] {
			br := rows.at(e.U)
			h[br*cols.N+cols.at(e.I)]++
			ok = ok && br >= last
			last = br
		}
		lastRow[c] = last
		if !ok {
			lastRow[c] = -1
		}
	})
	grouped := true
	for c := range lastRow {
		grouped = grouped && lastRow[c] >= 0 && (c == 0 || lastRow[c-1] <= firstRow[c])
	}
	for b := 0; b < nb; b++ {
		k := 0
		for c := 0; c < nch; c++ {
			k += cnt[c*nb+b]
		}
		off[b+1] = off[b] + k
	}
	if grouped && rows.N > 1 {
		runs := balancedRuns(off, cols.N, nch)
		eachChunk(len(runs)-1, len(runs)-1, func(r, _, _ int) {
			placeRows(entries, off, cols, runs[r], runs[r+1])
		})
		return off
	}
	if nch == 1 {
		cnt = append([]int(nil), off[:nb]...)
	} else {
		chunkCursors(cnt, nb, func(b int) int { return off[b] })
	}
	tmp := make([]Rating, n)
	eachChunk(n, nch, func(c, lo, hi int) {
		next := cnt[c*nb : (c+1)*nb]
		for _, e := range entries[lo:hi] {
			b := rows.at(e.U)*cols.N + cols.at(e.I)
			tmp[next[b]] = e
			next[b]++
		}
	})
	runs := balancedRuns(off, 1, nch)
	eachChunk(len(runs)-1, len(runs)-1, func(r, _, _ int) {
		var count []int
		for b := runs[r]; b < runs[r+1]; b++ {
			count = sortRowCol(entries[off[b]:off[b+1]], tmp[off[b]:off[b+1]], count)
		}
	})
	return off
}

// placeRows lays block rows [lo, hi) out in place, one block row at a
// time through a scratch of the largest: a stable scatter by block column
// into the scratch, then sortRowCol of each block back into entries. The
// block rows' entries must already be contiguous, in block-row order.
func placeRows(entries []Rating, off []int, cols Axis, lo, hi int) {
	span := cols.N
	scratch := 0
	for br := lo; br < hi; br++ {
		scratch = max(scratch, off[(br+1)*span]-off[br*span])
	}
	tmp := make([]Rating, scratch)
	cur := make([]int, span)
	var count []int
	for br := lo; br < hi; br++ {
		b0 := br * span
		first := off[b0]
		for b := range cur {
			cur[b] = off[b0+b] - first
		}
		for _, e := range entries[first:off[b0+span]] {
			b := cols.at(e.I)
			tmp[cur[b]] = e
			cur[b]++
		}
		for b := b0; b < b0+span; b++ {
			count = sortRowCol(entries[off[b]:off[b+1]], tmp[off[b]-first:off[b+1]-first], count)
		}
	}
}

// balancedRuns cuts units [0, nu) — unit u is blocks [u·step, (u+1)·step)
// of the offsets off — into at most w contiguous runs of about equal
// entry count, and returns the runs' unit bounds: run r is units
// [runs[r], runs[r+1]). Run r closes at the first unit bound at or past
// r+1 w-ths of the entries.
func balancedRuns(off []int, step, w int) []int {
	nu := (len(off) - 1) / step
	w = max(1, min(w, nu))
	total := off[len(off)-1]
	runs := make([]int, w+1)
	u := 0
	for r := 1; r < w; r++ {
		target := total * r / w
		for u < nu && off[u*step] < target {
			u++
		}
		runs[r] = u
	}
	runs[w] = nu
	return runs
}

// sortRowCol writes src into dst in (row, col) order, stable for repeated
// cells: two stable counting passes over the block's own row and column
// spans, by column into dst and then by row back into src, and home to
// dst. src is scratch afterwards. count is the reusable count buffer,
// returned grown.
func sortRowCol(dst, src []Rating, count []int) []int {
	if len(src) == 0 {
		return count
	}
	minU, maxU := src[0].U, src[0].U
	minI, maxI := src[0].I, src[0].I
	for _, e := range src[1:] {
		minU, maxU = min(minU, e.U), max(maxU, e.U)
		minI, maxI = min(minI, e.I), max(maxI, e.I)
	}
	nc, nr := int(maxI-minI)+2, int(maxU-minU)+2
	if cap(count) < nc+nr {
		count = make([]int, nc+nr)
	}
	byCol, byRow := count[:nc], count[nc:nc+nr]
	clear(byCol)
	clear(byRow)
	for _, e := range src {
		byCol[e.I-minI+1]++
		byRow[e.U-minU+1]++
	}
	prefixSum(byCol)
	prefixSum(byRow)
	for _, e := range src {
		j := e.I - minI
		dst[byCol[j]] = e
		byCol[j]++
	}
	for _, e := range dst {
		j := e.U - minU
		src[byRow[j]] = e
		byRow[j]++
	}
	copy(dst, src)
	return count
}

// prefixSum turns per-key counts, stored one slot past each key, into
// each key's starting offset.
func prefixSum(c []int) {
	for i := 1; i < len(c); i++ {
		c[i] += c[i-1]
	}
}

// BlockGridded is a rating matrix laid out on an NBR×NBC grid of
// equal-width blocks: block (br, bc) holds the entries in rows
// RowRange(br) and columns ColRange(bc). The block rows cut the band
// [RowLo, RowHi) of rows, the block columns all Cols columns.
type BlockGridded struct {
	RowLo, RowHi int
	Cols         int
	NBR, NBC     int
	// Entries holds the blocks back to back, row-major by (br, bc), each
	// in (row, col) order (BlockOrder).
	Entries []Rating
	// Offsets has NBR·NBC+1 entries: block b is
	// Entries[Offsets[b]:Offsets[b+1]].
	Offsets []int
}

// NewBlockGrid lays m out in place on a grid of nbr block rows over the
// row band [rowLo, rowHi), which must hold every entry, and nbc block
// columns over all of m's columns: it reorders m.Entries, which the
// grid's Entries then alias. A worker's shard holds one band of the
// matrix's rows; cutting that band instead of all m.Rows gives every
// block row of the grid some of the shard's rows.
func NewBlockGrid(m *COO, rowLo, rowHi, nbr, nbc int) (*BlockGridded, error) {
	if nbr <= 0 || nbc <= 0 {
		return nil, errors.New("sparse: block grid dimensions must be positive")
	}
	if rowLo < 0 || rowHi > m.Rows || nbr > rowHi-rowLo || nbc > m.Cols {
		return nil, fmt.Errorf("sparse: grid %dx%d exceeds rows [%d,%d) x %d cols of a %dx%d matrix",
			nbr, nbc, rowLo, rowHi, m.Cols, m.Rows, m.Cols)
	}
	off := BlockOrder(m.Entries, EvenAxis(rowLo, rowHi, nbr), EvenAxis(0, m.Cols, nbc))
	return &BlockGridded{RowLo: rowLo, RowHi: rowHi, Cols: m.Cols, NBR: nbr, NBC: nbc,
		Entries: m.Entries, Offsets: off}, nil
}

// Block returns the entries of block (br, bc).
func (g *BlockGridded) Block(br, bc int) []Rating {
	b := br*g.NBC + bc
	return g.Entries[g.Offsets[b]:g.Offsets[b+1]]
}

// RowRange reports the row index range [lo, hi) covered by block row br:
// exactly the rows u in the band with ⌊(u−RowLo)·NBR/(RowHi−RowLo)⌋ == br,
// the bucketing EvenAxis applies.
func (g *BlockGridded) RowRange(br int) (lo, hi int) {
	lo, hi = evenRange(g.RowHi-g.RowLo, g.NBR, br)
	return g.RowLo + lo, g.RowLo + hi
}

// ColRange reports the column index range [lo, hi) covered by block col
// bc, mirroring RowRange.
func (g *BlockGridded) ColRange(bc int) (lo, hi int) {
	return evenRange(g.Cols, g.NBC, bc)
}

// evenRange is block b of EvenAxis(0, size, n) as an index range: the
// indices x with ⌊x·n/size⌋ == b, so the bounds are ceilings.
func evenRange(size, n, b int) (lo, hi int) {
	return (b*size + n - 1) / n, ((b+1)*size + n - 1) / n
}

// NNZ reports total entries across all blocks.
func (g *BlockGridded) NNZ() int { return len(g.Entries) }
