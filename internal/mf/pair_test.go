package mf

import (
	"fmt"
	"math"
	"testing"

	"hccmf/internal/sparse"
)

// disjointPair returns two rating slices over one rows×cols matrix that
// share no row and no column: a lies in the top-left quarter and b in the
// bottom-right one, with na and nb ratings before repeatedEntries mixes
// in back-to-back revisits of a cell, a user and an item.
func disjointPair(t testing.TB, rows, cols, na, nb int) (a, b []sparse.Rating) {
	t.Helper()
	hr, hc := rows/2, cols/2
	a = repeatedEntries(trainSet(t, hr, hc, na, 31))
	b = repeatedEntries(trainSet(t, rows-hr, cols-hc, nb, 37))
	for i := range b {
		b[i].U += int32(hr)
		b[i].I += int32(hc)
	}
	return a, b
}

// sameFactors reports the first P or Q element whose bits differ.
func sameFactors(t *testing.T, what string, got, want *Factors) {
	t.Helper()
	for i := range want.P {
		if math.Float32bits(got.P[i]) != math.Float32bits(want.P[i]) {
			t.Fatalf("%s: P[%d] = %v, want %v", what, i, got.P[i], want.P[i])
		}
	}
	for i := range want.Q {
		if math.Float32bits(got.Q[i]) != math.Float32bits(want.Q[i]) {
			t.Fatalf("%s: Q[%d] = %v, want %v", what, i, got.Q[i], want.Q[i])
		}
	}
}

// TestTrainPairMatchesSequential pins the paired sweep to TrainEntries
// over a and then over b, on every tier this host can run, at k =
// 1..160 (every 8-lane, 4-group and scalar-tail shape): with a longer
// than b, b longer than a, equal lengths, and one slice empty.
func TestTrainPairMatchesSequential(t *testing.T) {
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	const rows, cols = 40, 30
	long, short := disjointPair(t, rows, cols, 300, 120)
	cases := []struct {
		name string
		a, b []sparse.Rating
	}{
		{"a longer", long, short},
		{"b longer", short[:len(short)-7], long},
		{"equal", long[:len(short)], short},
		{"b empty", long, nil},
		{"a empty", nil, short},
	}
	forEachTier(t, func(t *testing.T) {
		for k := 1; k <= 160; k++ {
			init := NewFactorsInit(rows, cols, k, 3, sparse.NewRand(uint64(k)))
			for _, tc := range cases {
				got, want := init.Clone(), init.Clone()
				trainPair(got, tc.a, tc.b, h)
				TrainEntries(want, tc.a, h)
				TrainEntries(want, tc.b, h)
				sameFactors(t, fmt.Sprintf("k=%d %s", k, tc.name), got, want)
			}
		}
	})
}

// pairRejectsOutOfRangeRows is TestSweepsRejectOutOfRangeRows' paired
// case: an out-of-range rating in a or in b of a paired sweep. It must
// panic with nothing written for the bad rating or outside P and Q. The
// VEX sweep stops at the bad rating's index in both slices, having
// applied the pairs before it; the portable tier sweeps a and then b, so
// it stops at the bad rating itself.
func pairRejectsOutOfRangeRows(t *testing.T) {
	const m, n, k, guard = 6, 4, 11, 64
	const sentinel = float32(-123.25)
	h := HyperParams{Gamma: 0.01, Lambda1: 0.02, Lambda2: 0.03}
	// a uses rows 0–2 and items 0–1, b rows 3–5 and items 2–3.
	goodA := []sparse.Rating{{U: 0, I: 1, V: 3}, {U: 2, I: 0, V: 1}, {U: 1, I: 1, V: 2}, {U: 2, I: 1, V: 4}}
	goodB := []sparse.Rating{{U: 3, I: 2, V: 2}, {U: 5, I: 3, V: 5}, {U: 4, I: 2, V: 1}}
	const at = 2 // the bad rating's index, inside the paired part
	bads := []sparse.Rating{{U: m, V: 3}, {U: -1, V: 3}, {U: 3, I: n, V: 3}, {U: 4, I: -1, V: 3}}
	for _, inB := range []bool{false, true} {
		for _, bad := range bads {
			back := make([]float32, guard+m*k+guard+n*k+guard)
			for i := range back {
				back[i] = sentinel
			}
			po, qo := guard, guard+m*k+guard
			f := &Factors{M: m, N: n, K: k, P: back[po : po+m*k : po+m*k], Q: back[qo : qo+n*k : qo+n*k]}
			rng := sparse.NewRand(5)
			copy(f.P, randVec(rng, m*k))
			copy(f.Q, randVec(rng, n*k))
			a, b := append([]sparse.Rating(nil), goodA...), append([]sparse.Rating(nil), goodB...)
			// The ratings the tier applies before it stops.
			applied := append(append([]sparse.Rating(nil), a[:at]...), b[:at]...)
			if inB {
				b = append(b[:at:at], append([]sparse.Rating{bad}, b[at:]...)...)
				if !useVEX {
					applied = append(append([]sparse.Rating(nil), a...), b[:at]...)
				}
			} else {
				a = append(a[:at:at], append([]sparse.Rating{bad}, a[at:]...)...)
				if !useVEX {
					applied = a[:at]
				}
			}
			ref := f.Clone()
			for _, e := range applied {
				referenceUpdateOne(ref.PRow(e.U), ref.QRow(e.I), e.V, h)
			}
			what := fmt.Sprintf("bad %+v in b=%v", bad, inB)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: trainPair accepted an out-of-range rating", what)
					}
				}()
				trainPair(f, a, b, h)
			}()
			sameFactors(t, what, f, ref)
			for _, r := range [][2]int{{0, po}, {po + m*k, qo}, {qo + n*k, len(back)}} {
				for i := r[0]; i < r[1]; i++ {
					if back[i] != sentinel {
						t.Fatalf("%s: float %d outside P and Q overwritten: %v", what, i, back[i])
					}
				}
			}
		}
	}
}

// oneBlockAtATime is the block walk as it was before the lanes: every
// block of every stratum swept alone, in block-row order, inline. It lays
// train out through w, so it sees the grid the walk under test does.
func oneBlockAtATime(w *BlockWalk, f *Factors, train *sparse.COO, h HyperParams, side int) {
	g := w.layout(train, side)
	if g == nil {
		TrainEntries(f, train.Entries, h)
		return
	}
	for s := 0; s < g.NBR; s++ {
		for b := 0; b < g.NBR; b++ {
			TrainEntries(f, g.Block(b, (b+s)%g.NBR), h)
		}
	}
}

// zipfRatings draws nnz ratings whose rows and columns follow a steep
// power law (index ⌊n·x⁴⌋ for uniform x), so the blocks near the grid's
// origin hold most of the ratings.
func zipfRatings(rows, cols, nnz int, seed uint64) *sparse.COO {
	rng := sparse.NewRand(seed)
	m := sparse.NewCOO(rows, cols, nnz)
	skew := func(n int) int32 {
		x := rng.Float64()
		return int32(float64(n) * x * x * x * x)
	}
	for c := 0; c < nnz; c++ {
		m.Add(skew(rows), skew(cols), 1+4*rng.Float32())
	}
	return m
}

// TestBlockWalkLanesMatchOneBlockAtATime pins the walk's inline two-lane
// sweep, and its pool walk on 2, 4 and 8 threads, to the
// one-block-at-a-time walk, bit for bit over three epochs, on a
// Zipf-skewed grid whose strata deal one lane far more entries than the
// other, so that lane runs on alone after the other empties. sweepLanes is also run over
// lopsided splits the greedy deal does not make.
func TestBlockWalkLanesMatchOneBlockAtATime(t *testing.T) {
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	const rows, cols, k, epochs = 300, 240, 20, 3
	m := zipfRatings(rows, cols, 20000, 43)
	side := gridSide(cols, k)
	init := NewFactorsInit(rows, cols, k, m.MeanRating(), sparse.NewRand(6))

	var probe BlockWalk
	g := probe.layout(m.Clone(), side)
	skewed := false
	for s := 0; s < g.NBR; s++ {
		a, b := probe.deal(g, s)
		na, nb := 0, 0
		for _, blk := range a {
			na += len(blk)
		}
		for _, blk := range b {
			nb += len(blk)
		}
		skewed = skewed || max(na, nb) > 2*min(na, nb)
	}
	if !skewed {
		t.Fatal("no stratum deals one lane twice the other's entries: the grid is not skewed enough to test a lane running on alone")
	}

	forEachTier(t, func(t *testing.T) {
		var oracle BlockWalk
		want, wantTrain := init.Clone(), m.Clone()
		for e := 0; e < epochs; e++ {
			oneBlockAtATime(&oracle, want, wantTrain, h, side)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			var w BlockWalk
			got, train := init.Clone(), m.Clone()
			for e := 0; e < epochs; e++ {
				w.Walk(got, train, h, side, threads)
			}
			sameFactors(t, fmt.Sprintf("%d threads", threads), got, want)
		}
		// Any split of a stratum into lanes gives the same bits. The
		// lopsided ones leave one lane several blocks to sweep alone
		// once the other is empty.
		splits := map[string]func(blocks [][]sparse.Rating) (a, b [][]sparse.Rating){
			"first block vs the rest": func(bl [][]sparse.Rating) (a, b [][]sparse.Rating) { return bl[:1], bl[1:] },
			"the rest vs first block": func(bl [][]sparse.Rating) (a, b [][]sparse.Rating) { return bl[1:], bl[:1] },
			"all in the second lane":  func(bl [][]sparse.Rating) (a, b [][]sparse.Rating) { return nil, bl },
		}
		for name, split := range splits {
			var w BlockWalk
			got, train := init.Clone(), m.Clone()
			g := w.layout(train, side)
			for e := 0; e < epochs; e++ {
				for s := 0; s < g.NBR; s++ {
					var blocks [][]sparse.Rating
					for r := 0; r < g.NBR; r++ {
						if blk := g.Block(r, (r+s)%g.NBR); len(blk) > 0 {
							blocks = append(blocks, blk)
						}
					}
					a, b := split(blocks)
					sweepLanes(got, a, b, h)
				}
			}
			sameFactors(t, name, got, want)
		}
	})
}
