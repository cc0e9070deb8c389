// Package sparse provides the sparse rating-matrix representations used
// throughout HCC-MF: coordinate (COO) triplet storage for streaming SGD
// updates, compressed sparse row (CSR) indexes for row-grid partitioning,
// deterministic shuffling, and the row/column grids that the DataManager
// hands to workers.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Rating is one observed entry of the rating matrix R: user u rated item i
// with value v. Row/column indexes are 0-based.
type Rating struct {
	U int32
	I int32
	V float32
}

// COO is a rating matrix in coordinate form. It is the canonical training
// container: SGD kernels stream over Entries in storage order, so the order
// of Entries is significant (shuffling changes training behaviour).
type COO struct {
	Rows    int
	Cols    int
	Entries []Rating
}

// NewCOO returns an empty COO with the given dimensions and capacity hint.
func NewCOO(rows, cols, capHint int) *COO {
	if capHint < 0 {
		capHint = 0
	}
	return &COO{Rows: rows, Cols: cols, Entries: make([]Rating, 0, capHint)}
}

// NNZ reports the number of stored entries.
func (m *COO) NNZ() int { return len(m.Entries) }

// Add appends one rating. It panics if the coordinate is out of range; use
// Append for checked insertion.
func (m *COO) Add(u, i int32, v float32) {
	if u < 0 || int(u) >= m.Rows || i < 0 || int(i) >= m.Cols {
		// lint:invariant Add is the unchecked hot path for generators whose coordinates are in-range by construction; Append is the checked sibling for parsed input.
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d matrix", u, i, m.Rows, m.Cols))
	}
	m.Entries = append(m.Entries, Rating{U: u, I: i, V: v})
}

// CheckRange reports the out-of-range error Append would return for the
// coordinate (u,i) in a rows×cols matrix, or nil when it is in range. The
// dataset parsers share it so that a range error carries the same text
// whether it comes from Append or from a parser worker that range-checks
// before it owns a matrix.
func CheckRange(u, i int32, rows, cols int) error {
	if u < 0 || int(u) >= rows || i < 0 || int(i) >= cols {
		return fmt.Errorf("sparse: entry (%d,%d) outside %dx%d matrix", u, i, rows, cols)
	}
	return nil
}

// Append appends one rating, reporting an error when the coordinate is out
// of range.
func (m *COO) Append(u, i int32, v float32) error {
	if err := CheckRange(u, i, m.Rows, m.Cols); err != nil {
		return err
	}
	m.Entries = append(m.Entries, Rating{U: u, I: i, V: v})
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *COO) Clone() *COO {
	out := &COO{Rows: m.Rows, Cols: m.Cols, Entries: make([]Rating, len(m.Entries))}
	copy(out.Entries, m.Entries)
	return out
}

// Transpose returns a new COO with rows and columns exchanged. HCC-MF uses
// it to switch between row-grid and column-grid partitioning (the paper
// picks the grid along the longer dimension).
func (m *COO) Transpose() *COO {
	out := &COO{Rows: m.Cols, Cols: m.Rows, Entries: make([]Rating, len(m.Entries))}
	for idx, e := range m.Entries {
		out.Entries[idx] = Rating{U: e.I, I: e.U, V: e.V}
	}
	return out
}

// MeanRating returns the arithmetic mean of all stored ratings, used to
// initialise feature matrices so that p·q starts near the global mean.
func (m *COO) MeanRating() float64 {
	if len(m.Entries) == 0 {
		return 0
	}
	var sum float64
	for _, e := range m.Entries {
		sum += float64(e.V)
	}
	return sum / float64(len(m.Entries))
}

// Validate checks structural invariants: all coordinates in range and no
// NaN/Inf ratings. It is used by loaders and property tests.
func (m *COO) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return errors.New("sparse: negative dimension")
	}
	for idx, e := range m.Entries {
		if e.U < 0 || int(e.U) >= m.Rows {
			return fmt.Errorf("sparse: entry %d row %d out of range [0,%d)", idx, e.U, m.Rows)
		}
		if e.I < 0 || int(e.I) >= m.Cols {
			return fmt.Errorf("sparse: entry %d col %d out of range [0,%d)", idx, e.I, m.Cols)
		}
		if math.IsNaN(float64(e.V)) || math.IsInf(float64(e.V), 0) {
			return fmt.Errorf("sparse: entry %d has non-finite rating %v", idx, e.V)
		}
	}
	return nil
}

// RowCounts returns, for each row, the number of stored entries. The
// DataManager uses these histograms to cut balanced row grids.
func (m *COO) RowCounts() []int { return m.RowCountsInto(nil) }

// RowCountsInto fills counts with per-row entry counts and returns it,
// reusing the caller's buffer when it has capacity m.Rows and allocating
// only otherwise. The radix grid sort and the sharding path call it with
// pooled buffers so grid rebuilds stop allocating histograms per call.
func (m *COO) RowCountsInto(counts []int) []int {
	if cap(counts) < m.Rows {
		counts = make([]int, m.Rows)
	}
	counts = counts[:m.Rows]
	clear(counts)
	for _, e := range m.Entries {
		counts[e.U]++
	}
	return counts
}

// ColCounts returns per-column entry counts.
func (m *COO) ColCounts() []int { return m.ColCountsInto(nil) }

// ColCountsInto is the caller-buffer variant of ColCounts; see
// RowCountsInto.
func (m *COO) ColCountsInto(counts []int) []int {
	if cap(counts) < m.Cols {
		counts = make([]int, m.Cols)
	}
	counts = counts[:m.Cols]
	clear(counts)
	for _, e := range m.Entries {
		counts[e.I]++
	}
	return counts
}

// SortByRow sorts entries stably by (row, col). FPSGD-style kernels rely
// on this "block sorting by row" to improve cache hit rate (the paper
// applies the same trick to cuMF_SGD's grid problem). The sort is a
// two-pass LSD counting sort keyed on the known (row, col) range — O(NNZ +
// Rows + Cols) instead of O(NNZ log NNZ) — with a stable comparison-sort
// fallback for degenerate shapes whose index space dwarfs the entry count.
func (m *COO) SortByRow() { sortEntries(m) }

// Shuffle permutes entries with the Fisher-Yates algorithm driven by the
// given source, making SGD's sampling order deterministic per seed.
func (m *COO) Shuffle(rng *Rand) {
	for i := len(m.Entries) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		m.Entries[i], m.Entries[j] = m.Entries[j], m.Entries[i]
	}
}

// SplitTrainTest deterministically splits the matrix into train and test
// sets, with approximately testFrac of entries (per the rng) in the test
// split. Dimensions are preserved, and both sides keep the input's order.
// testFrac reaches this point straight from CLI flags and config, so an
// out-of-range value is a returned error, not a panic.
//
// The rng draws one value per entry, in order, so the decisions are drawn
// serially into a bitmap (a set bit sends the entry to test); the copy
// into the two exact-size arrays then runs over chunks of the entries in
// parallel, each chunk starting at the train and test counts before it.
func (m *COO) SplitTrainTest(rng *Rand, testFrac float64) (train, test *COO, err error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("sparse: testFrac %v out of [0,1)", testFrac)
	}
	n := len(m.Entries)
	threshold := uint64(testFrac * float64(math.MaxUint64))
	// The draws step the generator's state in locals, which stay in
	// registers, and write it back at the end.
	toTest := make([]uint64, (n+63)/64)
	s0, s1, s2, s3 := rng.s[0], rng.s[1], rng.s[2], rng.s[3]
	for w := range toTest {
		var word uint64
		for b := range min(64, n-64*w) {
			var draw, bit uint64
			draw, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			if draw < threshold {
				bit = 1
			}
			word |= bit << b
		}
		toTest[w] = word
	}
	rng.s = [4]uint64{s0, s1, s2, s3}
	// Chunks are cut in whole bitmap words; testBefore[c] counts the test
	// entries of the chunks before c.
	nch := chunkCount(n, 1)
	testBefore := make([]int, nch+1)
	for c := range nch {
		lo, hi := evenRange(len(toTest), nch, c)
		testBefore[c+1] = testBefore[c]
		for _, word := range toTest[lo:hi] {
			testBefore[c+1] += bits.OnesCount64(word)
		}
	}
	nTest := testBefore[nch]
	train = &COO{Rows: m.Rows, Cols: m.Cols, Entries: make([]Rating, n-nTest)}
	test = &COO{Rows: m.Rows, Cols: m.Cols, Entries: make([]Rating, nTest)}
	eachChunk(len(toTest), nch, func(c, wlo, whi int) {
		ti := testBefore[c]
		tr := 64*wlo - ti
		for w, word := range toTest[wlo:whi] {
			lo := 64 * (wlo + w)
			for b, e := range m.Entries[lo:min(lo+64, n)] {
				if word>>b&1 != 0 {
					test.Entries[ti] = e
					ti++
				} else {
					train.Entries[tr] = e
					tr++
				}
			}
		}
	})
	return train, test, nil
}
