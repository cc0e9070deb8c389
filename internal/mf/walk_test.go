package mf_test

import (
	"math"
	"sort"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/related"
	"hccmf/internal/sparse"
)

// serialStrata is the block walk's oracle, written without the walk or
// sparse's layout builder: bucket the ratings into a g×g grid of
// equal-width blocks — the block rows cut the band of rows the ratings
// occupy — sort each block by (row, col) keeping repeated cells in input
// order, then update block by block over the g DSGD strata: stratum s is
// the blocks (b, (b+s) mod g).
func serialStrata(f *mf.Factors, m *sparse.COO, g int, h mf.HyperParams) {
	lo, hi := rowBand(m)
	blocks := make([][]sparse.Rating, g*g)
	for _, e := range m.Entries {
		br, bc := (int(e.U)-lo)*g/(hi-lo), int(e.I)*g/m.Cols
		blocks[br*g+bc] = append(blocks[br*g+bc], e)
	}
	for _, blk := range blocks {
		sort.SliceStable(blk, func(x, y int) bool {
			if blk[x].U != blk[y].U {
				return blk[x].U < blk[y].U
			}
			return blk[x].I < blk[y].I
		})
	}
	for s := 0; s < g; s++ {
		for b := 0; b < g; b++ {
			for _, e := range blocks[b*g+(b+s)%g] {
				mf.UpdateOne(f.PRow(e.U), f.QRow(e.I), e.V, h)
			}
		}
	}
}

// rowBand reports the rows [lo, hi) m's ratings occupy.
func rowBand(m *sparse.COO) (lo, hi int) {
	lo, hi = m.Rows, 0
	for _, e := range m.Entries {
		lo, hi = min(lo, int(e.U)), max(hi, int(e.U)+1)
	}
	return lo, hi
}

// randomRatings draws nnz ratings uniformly over rows [lo, hi) and all
// cols columns of a rows×cols matrix; on the smaller shapes many cells
// repeat, so the oracle also pins the order of repeated cells.
func randomRatings(rows, lo, hi, cols, nnz int, seed uint64) *sparse.COO {
	rng := sparse.NewRand(seed)
	m := sparse.NewCOO(rows, cols, nnz)
	for c := 0; c < nnz; c++ {
		m.Add(int32(lo+rng.Intn(hi-lo)), int32(rng.Intn(cols)), 1+4*rng.Float32())
	}
	return m
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// FPSGD and Batched at 1, 2 and 4 threads, and DSGD, are the serial strata
// loop bit for bit, epoch after epoch: the walk's bits depend on the shard
// and the grid side only, never on the thread count.
func TestBlockWalkMatchesSerialStrata(t *testing.T) {
	h := mf.HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	const epochs = 3
	shapes := []struct {
		name            string
		rows, lo, hi    int // a rows-row matrix whose ratings sit in rows [lo, hi)
		cols, nnz       int
		k               int
		wantSide, dsgdP int
	}{
		// Q fits one block: the side is the floor.
		{"square", 300, 0, 300, 300, 20000, 8, 16, 4},
		// Few rows: the side is clamped to the row count.
		{"wide, side clamped to rows", 12, 0, 12, 500, 3000, 8, 12, 5},
		// Q past one block: 3000 columns of k = 512 need 24 blocks, and
		// 20 rows clamp them.
		{"Q over a block, clamped", 20, 0, 20, 3000, 4000, 512, 20, 3},
		// A worker's shard: its ratings fill one band of the matrix's
		// rows, which the block rows cut.
		{"worker band", 400, 100, 160, 300, 8000, 8, 16, 4},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			m := randomRatings(sh.rows, sh.lo, sh.hi, sh.cols, sh.nnz, 41)
			lo, hi := rowBand(m)
			side := min(mf.GridSide(sh.cols, sh.k), hi-lo, sh.cols)
			if side != sh.wantSide {
				t.Fatalf("grid side %d, want %d", side, sh.wantSide)
			}
			init := mf.NewFactorsInit(m.Rows, m.Cols, sh.k, m.MeanRating(), sparse.NewRand(3))
			oracle := func(g int) *mf.Factors {
				f := init.Clone()
				for e := 0; e < epochs; e++ {
					serialStrata(f, m, g, h)
				}
				return f
			}
			check := func(want *mf.Factors, e mf.Engine) {
				t.Helper()
				got := init.Clone()
				train := m.Clone() // the walk lays its shard out in place
				for ep := 0; ep < epochs; ep++ {
					e.Epoch(got, train, h)
				}
				if i := sameBits(want.P, got.P); i >= 0 {
					t.Fatalf("%s: P[%d] = %v, serial strata %v", e.Name(), i, got.P[i], want.P[i])
				}
				if i := sameBits(want.Q, got.Q); i >= 0 {
					t.Fatalf("%s: Q[%d] = %v, serial strata %v", e.Name(), i, got.Q[i], want.Q[i])
				}
			}
			want := oracle(side)
			for _, threads := range []int{1, 2, 4} {
				check(want, &mf.FPSGD{Threads: threads})
				check(want, &mf.Batched{Groups: threads})
			}
			check(oracle(sh.dsgdP), &related.DSGD{Workers: sh.dsgdP})
		})
	}
}
