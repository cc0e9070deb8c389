//go:build amd64 && !noasm

package mf

import (
	"fmt"

	"hccmf/internal/cpu"
	"hccmf/internal/sparse"
)

// useVEX is the CPUID gate, decided once at package init: the VEX sweeps
// in update_amd64.s run only on a host whose CPU has AVX and whose OS
// saves the YMM registers (cpu.AVX). Every other amd64 host runs the
// portable Go loops, which compute the same bits (DESIGN.md §16). The
// sweeps use no AVX2 instruction, so AVX is all the gate asks for.
var useVEX = cpu.AVX

// sgdSweep is the VEX SGD kernel (update_amd64.s): it applies one update
// per entry, in order, to the k-wide rows U of p and I of q, bit-identical
// to a per-entry updateOneGeneric/referenceUpdateOne sweep for every k. It
// walks two slices: a[i] and b[i] go together, their dot products and
// updates interleaved, until the shorter runs out, and the longer one is
// finished alone. Callers guarantee that no row of p or q is touched by
// both a and b, so the result is that of sweeping a and then b. It stops
// at the first index i whose a[i] or b[i] (or, past the shorter slice,
// whose remaining entry) has a U not in [0, pRows) or an I not in
// [0, qRows), before touching any memory for that index, and returns i
// and the last applied entry's error: the sweep completed when n is
// max(len(a), len(b)). Callers guarantee pRows·k <= len(p) and
// qRows·k <= len(q), and that useVEX is set.
//
//go:noescape
func sgdSweep(p, q []float32, k, pRows, qRows int, a, b []sparse.Rating, h HyperParams) (n int, e float32)

// sqErrSweep is sumSqErrGeneric in VEX assembly: Σ(V − p_U·q_I)² over
// entries in input order, bit-identical for every k, with sgdSweep's row
// checks. It returns the sum over the first n entries, stopping at the
// first out-of-range row.
//
//go:noescape
func sqErrSweep(p, q []float32, k, pRows, qRows int, entries []sparse.Rating) (sum float64, n int)

// updateOne is the one-entry case of sgdSweep over the single rows p and q
// (len(q) == len(p)).
//
// lint:hotpath
func updateOne(p, q []float32, r float32, h HyperParams) float32 {
	if !useVEX {
		return updateOneGeneric(p, q, r, h)
	}
	one := [1]sparse.Rating{{V: r}}
	_, e := sgdSweep(p, q, len(p), 1, 1, one[:], nil, h)
	return e
}

// trainPair sweeps two slices of ratings that share no P row and no Q row,
// such as two blocks of one BlockWalk stratum, with the bits of
// TrainEntries over a and then over b. The VEX sweep takes a[i] and b[i]
// together, so two independent dot-product chains are in flight at once
// (DESIGN.md §16, "Two disjoint blocks per sweep"); the portable tier
// sweeps a and then b. An out-of-range rating panics before anything is
// written for it; which earlier ratings were applied differs by tier: the
// VEX sweep stops at the first index i where a[i] or b[i] is out of range,
// with a[:i] and b[:i] applied, the portable tier at the first bad entry
// of a followed by b.
//
// lint:hotpath
func trainPair(f *Factors, a, b []sparse.Rating, h HyperParams) {
	if !useVEX {
		trainEntriesGeneric(f, a, h)
		trainEntriesGeneric(f, b, h)
		return
	}
	pRows, qRows := sweepRows(f)
	if n, _ := sgdSweep(f.P, f.Q, f.K, pRows, qRows, a, b, h); n < max(len(a), len(b)) {
		if n < len(a) && (uint(a[n].U) >= uint(pRows) || uint(a[n].I) >= uint(qRows)) {
			panicRow(f, a[n])
		}
		panicRow(f, b[n])
	}
}

// lint:hotpath
func sumSqErr(f *Factors, entries []sparse.Rating) float64 {
	if !useVEX {
		return sumSqErrGeneric(f, entries)
	}
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
