package related

import "fmt"

// BlockGridTraffic quantifies the design HCC-MF's Section 3.3 decides
// against: extending FPSGD/cuMF_SGD's exclusive block scheduling across
// workers. It reports the distributed-memory feature traffic of one
// block-grid epoch in parameters: each of the g² blocks moves its m/g P
// rows and n/g Q columns to whichever worker trains it, so the epoch total
// is g·(m+n)·k — growing with the grid side, which itself must grow with
// the worker count.
func BlockGridTraffic(m, n, k, gridSide int) (int64, error) {
	if m <= 0 || n <= 0 || k <= 0 || gridSide <= 0 {
		return 0, fmt.Errorf("related: invalid traffic args m=%d n=%d k=%d g=%d", m, n, k, gridSide)
	}
	return int64(gridSide) * int64(m+n) * int64(k), nil
}

// RowGridQOnlyTraffic is HCC-MF's counterpart under the row grid with
// Strategy 1: each of p workers pulls and pushes Q once per epoch —
// 2·p·n·k parameters, independent of m.
func RowGridQOnlyTraffic(n, k, workers int) (int64, error) {
	if n <= 0 || k <= 0 || workers <= 0 {
		return 0, fmt.Errorf("related: invalid traffic args n=%d k=%d p=%d", n, k, workers)
	}
	return 2 * int64(workers) * int64(n) * int64(k), nil
}
