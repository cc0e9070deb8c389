package sparse

import (
	"errors"
	"fmt"
)

// GridKind selects how the DataManager slices the rating matrix across
// workers. The paper (Section 3.3) uses a row grid when the matrix has more
// rows than columns, otherwise a column grid; the framework may also use a
// 2-D block grid for FPSGD-style exclusive block scheduling.
type GridKind int

const (
	// RowGrid assigns contiguous groups of rows to workers.
	RowGrid GridKind = iota
	// ColGrid assigns contiguous groups of columns to workers.
	ColGrid
	// BlockGrid tiles the matrix into b×b blocks (FPSGD scheduling unit).
	BlockGrid
)

// String implements fmt.Stringer.
func (k GridKind) String() string {
	switch k {
	case RowGrid:
		return "row-grid"
	case ColGrid:
		return "col-grid"
	case BlockGrid:
		return "block-grid"
	default:
		return fmt.Sprintf("GridKind(%d)", int(k))
	}
}

// PreferredGrid picks the grid orientation the paper's DataManager would:
// row grid when rows ≥ cols, else column grid.
func PreferredGrid(rows, cols int) GridKind {
	if rows >= cols {
		return RowGrid
	}
	return ColGrid
}

// Slice describes one worker's shard of the rating matrix under a row
// grid: the half-open row range [Lo, Hi) and the number of stored entries
// inside it.
type Slice struct {
	Lo  int
	Hi  int
	NNZ int64
}

// Span reports the number of rows in the slice.
func (s Slice) Span() int { return s.Hi - s.Lo }

// cutGrid cuts nLines lines, whose entries start at the prefix offsets
// ptr (len nLines+1), into len(weights) contiguous ranges whose nnz counts
// match the weights as closely as a contiguous cut allows. Weights must be
// positive; they are renormalised. The cut walks lines greedily, closing a
// slice when its nnz reaches the target, and gives every slice at least
// one line.
func cutGrid(ptr []int64, nLines int, weights []float64) ([]Slice, error) {
	p := len(weights)
	if p == 0 {
		return nil, errors.New("sparse: no weights")
	}
	if nLines < p {
		return nil, fmt.Errorf("sparse: cannot cut %d lines into %d slices", nLines, p)
	}
	var wsum float64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("sparse: weight %d is %v, must be positive", i, w)
		}
		wsum += w
	}
	total := ptr[nLines]
	slices := make([]Slice, p)
	line := 0
	var consumed int64
	for s := 0; s < p; s++ {
		remainingSlices := p - s - 1
		target := consumed + int64(float64(weights[s]/wsum*float64(total))+0.5)
		if s == p-1 {
			target = total
		}
		lo := line
		// Every remaining slice must receive at least one line.
		maxLine := nLines - remainingSlices
		for line < maxLine && ptr[line] < target {
			line++
		}
		if line == lo { // guarantee non-empty span
			line++
		}
		slices[s] = Slice{Lo: lo, Hi: line, NNZ: ptr[line] - ptr[lo]}
		consumed = ptr[line]
	}
	slices[p-1].Hi = nLines
	slices[p-1].NNZ = total - ptr[slices[p-1].Lo]
	return slices, nil
}
