package sparse

import (
	"fmt"
	"testing"
	"testing/quick"
)

// CSR is a compressed sparse row index over a rating matrix, kept as the
// test oracle of RowShards: a serial counting sort whose row-major gather
// and greedy cut (CutRowGrid) RowShards must reproduce exactly. RowPtr has
// Rows+1 entries; the entries of row r live at positions
// [RowPtr[r], RowPtr[r+1]) of Col/Val.
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int64
	Col    []int32
	Val    []float32
}

// NewCSRFromCOO builds a CSR index from a COO matrix using a counting sort
// over rows; entries within a row keep their COO relative order (stable).
func NewCSRFromCOO(m *COO) *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, m.Rows+1),
		Col:    make([]int32, len(m.Entries)),
		Val:    make([]float32, len(m.Entries)),
	}
	for _, e := range m.Entries {
		c.RowPtr[e.U+1]++
	}
	for r := 0; r < m.Rows; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	next := make([]int64, m.Rows)
	copy(next, c.RowPtr[:m.Rows])
	for _, e := range m.Entries {
		pos := next[e.U]
		next[e.U]++
		c.Col[pos] = e.I
		c.Val[pos] = e.V
	}
	return c
}

// NNZ reports the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Col) }

// RowNNZ reports the number of entries in row r.
func (c *CSR) RowNNZ(r int) int { return int(c.RowPtr[r+1] - c.RowPtr[r]) }

// RangeNNZ reports the number of entries in rows [lo, hi).
func (c *CSR) RangeNNZ(lo, hi int) int64 {
	return c.RowPtr[hi] - c.RowPtr[lo]
}

// ToCOO converts back to coordinate form (row-major entry order).
func (c *CSR) ToCOO() *COO {
	out := NewCOO(c.Rows, c.Cols, c.NNZ())
	for r := 0; r < c.Rows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			out.Entries = append(out.Entries, Rating{U: int32(r), I: c.Col[p], V: c.Val[p]})
		}
	}
	return out
}

// Validate checks CSR structural invariants.
func (c *CSR) Validate() error {
	if len(c.RowPtr) != c.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(c.RowPtr), c.Rows+1)
	}
	if c.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0]=%d, want 0", c.RowPtr[0])
	}
	if c.RowPtr[c.Rows] != int64(len(c.Col)) || len(c.Col) != len(c.Val) {
		return fmt.Errorf("sparse: inconsistent lengths rowptr-end=%d col=%d val=%d",
			c.RowPtr[c.Rows], len(c.Col), len(c.Val))
	}
	for r := 0; r < c.Rows; r++ {
		if c.RowPtr[r+1] < c.RowPtr[r] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", r)
		}
	}
	for i, col := range c.Col {
		if col < 0 || int(col) >= c.Cols {
			return fmt.Errorf("sparse: Col[%d]=%d out of range [0,%d)", i, col, c.Cols)
		}
	}
	return nil
}

// CutRowGrid cuts the matrix into len(weights) contiguous row ranges whose
// nnz counts match the weights as closely as a contiguous cut allows.
// Weights must be positive and sum to ~1 (they are renormalised). The cut
// walks rows greedily, closing a slice when its nnz reaches the target.
func CutRowGrid(c *CSR, weights []float64) ([]Slice, error) {
	return cutGrid(c.RowPtr, c.Rows, weights)
}

func randomCOO(seed uint64, rows, cols, nnz int) *COO {
	rng := NewRand(seed)
	m := NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1+4*rng.Float32())
	}
	return m
}

func TestCSRFromCOOBasic(t *testing.T) {
	m := mkTestCOO(t)
	c := NewCSRFromCOO(m)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NNZ() != m.NNZ() {
		t.Fatalf("NNZ = %d, want %d", c.NNZ(), m.NNZ())
	}
	wantRowNNZ := []int{2, 1, 1, 2}
	for r, want := range wantRowNNZ {
		if got := c.RowNNZ(r); got != want {
			t.Fatalf("RowNNZ(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestCSRRangeNNZ(t *testing.T) {
	m := mkTestCOO(t)
	c := NewCSRFromCOO(m)
	if got := c.RangeNNZ(0, 4); got != 6 {
		t.Fatalf("RangeNNZ(0,4) = %d, want 6", got)
	}
	if got := c.RangeNNZ(1, 3); got != 2 {
		t.Fatalf("RangeNNZ(1,3) = %d, want 2", got)
	}
	if got := c.RangeNNZ(2, 2); got != 0 {
		t.Fatalf("RangeNNZ(2,2) = %d, want 0", got)
	}
}

func TestCSRToCOORoundTrip(t *testing.T) {
	m := randomCOO(3, 50, 40, 500)
	c := NewCSRFromCOO(m)
	back := c.ToCOO()
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip NNZ = %d, want %d", back.NNZ(), m.NNZ())
	}
	// Round trip through CSR sorts by row (stable within rows); compare to
	// a row-sorted original. SortByRow also sorts by column within a row,
	// so compare multisets per row instead.
	counts := map[Rating]int{}
	for _, e := range m.Entries {
		counts[e]++
	}
	for _, e := range back.Entries {
		counts[e]--
		if counts[e] == 0 {
			delete(counts, e)
		}
	}
	if len(counts) != 0 {
		t.Fatalf("round trip changed entry multiset: %d residuals", len(counts))
	}
}

func TestCSRStableWithinRow(t *testing.T) {
	m := NewCOO(2, 4, 4)
	m.Add(0, 3, 1)
	m.Add(0, 1, 2)
	m.Add(0, 2, 3)
	m.Add(1, 0, 4)
	c := NewCSRFromCOO(m)
	want := []int32{3, 1, 2}
	for i, col := range want {
		if c.Col[i] != col {
			t.Fatalf("row 0 not stable: Col[%d]=%d, want %d", i, c.Col[i], col)
		}
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	m := mkTestCOO(t)
	c := NewCSRFromCOO(m)

	c.RowPtr[0] = 1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted RowPtr[0] != 0")
	}
	c.RowPtr[0] = 0

	old := c.RowPtr[2]
	c.RowPtr[2] = c.RowPtr[1] - 1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone RowPtr")
	}
	c.RowPtr[2] = old

	oldCol := c.Col[0]
	c.Col[0] = 99
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range column")
	}
	c.Col[0] = oldCol
}

func TestCSREmptyMatrix(t *testing.T) {
	m := NewCOO(3, 3, 0)
	c := NewCSRFromCOO(m)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NNZ() != 0 {
		t.Fatalf("empty matrix NNZ = %d", c.NNZ())
	}
}

// Property: for random matrices, CSR validates and preserves nnz per row.
func TestCSRPropertyRowCounts(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomCOO(seed, 23, 19, 300)
		c := NewCSRFromCOO(m)
		if c.Validate() != nil {
			return false
		}
		counts := m.RowCounts()
		for r := 0; r < m.Rows; r++ {
			if c.RowNNZ(r) != counts[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
