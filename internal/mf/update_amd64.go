//go:build amd64 && !noasm

package mf

import (
	"fmt"

	"hccmf/internal/sparse"
)

// sgdSweep is the build's one SGD kernel on amd64 (update_amd64.s): it
// applies one update per entry, in order, to the k-wide rows U of p and
// I of q, bit-identical to a per-entry updateOneGeneric/referenceUpdateOne
// sweep for every k. It stops at the first entry whose U is not in
// [0, pRows) or whose I is not in [0, qRows), before touching any memory
// for it, and returns the number of entries applied and the last one's
// error. Callers guarantee pRows·k <= len(p) and qRows·k <= len(q).
//
//go:noescape
func sgdSweep(p, q []float32, k, pRows, qRows int, entries []sparse.Rating, h HyperParams) (n int, e float32)

// sqErrSweep is sumSqErrGeneric in assembly: Σ(V − p_U·q_I)² over entries
// in input order, bit-identical for every k, with sgdSweep's row checks.
// It returns the sum over the first n entries, stopping at the first
// out-of-range row.
//
//go:noescape
func sqErrSweep(p, q []float32, k, pRows, qRows int, entries []sparse.Rating) (sum float64, n int)

// updateOne is the one-entry case of sgdSweep over the single rows p and q
// (len(q) == len(p)).
//
// lint:hotpath
func updateOne(p, q []float32, r float32, h HyperParams) float32 {
	one := [1]sparse.Rating{{V: r}}
	_, e := sgdSweep(p, q, len(p), 1, 1, one[:], h)
	return e
}

// lint:hotpath
func trainEntries(f *Factors, entries []sparse.Rating, h HyperParams) {
	pRows, qRows := sweepRows(f)
	if n, _ := sgdSweep(f.P, f.Q, f.K, pRows, qRows, entries, h); n < len(entries) {
		panicRow(f, entries[n])
	}
}

// lint:hotpath
func sumSqErr(f *Factors, entries []sparse.Rating) float64 {
	pRows, qRows := sweepRows(f)
	sum, n := sqErrSweep(f.P, f.Q, f.K, pRows, qRows, entries)
	if n < len(entries) {
		panicRow(f, entries[n])
	}
	return sum
}

// sweepRows reports how many whole k-wide rows P and Q hold: the bounds
// the sweeps check every U and I against.
func sweepRows(f *Factors) (pRows, qRows int) {
	if f.K <= 0 {
		// lint:invariant NewFactors rejects k <= 0; a hand-built Factors with no positive row width has no rows to sweep.
		panic(fmt.Sprintf("mf: factors with K=%d", f.K))
	}
	return len(f.P) / f.K, len(f.Q) / f.K
}

// panicRow reports the entry a sweep stopped at. It stands in for the
// slice-bounds panic the Go loops raise at the same entry: every earlier
// entry has been applied and nothing was written for this one.
func panicRow(f *Factors, e sparse.Rating) {
	pRows, qRows := sweepRows(f)
	// lint:invariant shards and test splits are built inside the factor dims; a rating outside them is a caller bug, caught before any write.
	panic(fmt.Sprintf("mf: rating (u=%d, i=%d) outside factors with %d P rows and %d Q rows", e.U, e.I, pRows, qRows))
}
