package sparse

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestPreferredGrid(t *testing.T) {
	if g := PreferredGrid(100, 10); g != RowGrid {
		t.Fatalf("PreferredGrid(100,10) = %v, want row-grid", g)
	}
	if g := PreferredGrid(10, 100); g != ColGrid {
		t.Fatalf("PreferredGrid(10,100) = %v, want col-grid", g)
	}
	if g := PreferredGrid(50, 50); g != RowGrid {
		t.Fatalf("PreferredGrid(50,50) = %v, want row-grid on tie", g)
	}
}

func TestGridKindString(t *testing.T) {
	cases := map[GridKind]string{
		RowGrid: "row-grid", ColGrid: "col-grid", BlockGrid: "block-grid",
		GridKind(9): "GridKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestCutRowGridCoversAllRows(t *testing.T) {
	m := randomCOO(11, 1000, 100, 20000)
	c := NewCSRFromCOO(m)
	weights := []float64{0.1, 0.2, 0.3, 0.4}
	slices, err := CutRowGrid(c, weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != len(weights) {
		t.Fatalf("got %d slices, want %d", len(slices), len(weights))
	}
	if slices[0].Lo != 0 || slices[len(slices)-1].Hi != c.Rows {
		t.Fatalf("slices do not cover rows: first=%+v last=%+v", slices[0], slices[len(slices)-1])
	}
	var nnz int64
	for i := 1; i < len(slices); i++ {
		if slices[i].Lo != slices[i-1].Hi {
			t.Fatalf("gap between slice %d and %d", i-1, i)
		}
	}
	for _, s := range slices {
		if s.Span() <= 0 {
			t.Fatalf("empty slice %+v", s)
		}
		nnz += s.NNZ
	}
	if nnz != int64(m.NNZ()) {
		t.Fatalf("slices cover %d nnz, want %d", nnz, m.NNZ())
	}
}

func TestCutRowGridRespectsWeights(t *testing.T) {
	m := randomCOO(13, 10000, 100, 200000)
	c := NewCSRFromCOO(m)
	weights := []float64{0.5, 0.25, 0.25}
	slices, err := CutRowGrid(c, weights)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(m.NNZ())
	for i, s := range slices {
		frac := float64(s.NNZ) / total
		if math.Abs(frac-weights[i]) > 0.03 {
			t.Fatalf("slice %d holds %.3f of nnz, want %.3f±0.03", i, frac, weights[i])
		}
	}
}

func TestCutRowGridErrors(t *testing.T) {
	m := randomCOO(17, 10, 10, 50)
	c := NewCSRFromCOO(m)
	if _, err := CutRowGrid(c, nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := CutRowGrid(c, []float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := CutRowGrid(c, make11()); err == nil {
		t.Fatal("more slices than rows accepted")
	}
}

func make11() []float64 {
	w := make([]float64, 11)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestCutRowGridUnnormalisedWeights(t *testing.T) {
	m := randomCOO(19, 1000, 50, 30000)
	c := NewCSRFromCOO(m)
	a, err := CutRowGrid(c, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CutRowGrid(c, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights not renormalised: %+v vs %+v", a[i], b[i])
		}
	}
}

// NewBlockGrid keeps every entry, each inside its block's row and column
// ranges, and its block rows cut exactly the row band it is given: on a
// shard holding rows [100, 164) of 200, every block row gets ratings.
func TestNewBlockGrid(t *testing.T) {
	whole := randomCOO(29, 64, 64, 1000)
	band := randomCOO(29, 64, 64, 1000)
	band.Rows = 200
	for i := range band.Entries {
		band.Entries[i].U += 100
	}
	for _, tc := range []struct {
		name   string
		m      *COO
		lo, hi int
	}{
		{"whole matrix", whole, 0, 64},
		{"row band", band, 100, 164},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nnz := tc.m.NNZ()
			g, err := NewBlockGrid(tc.m, tc.lo, tc.hi, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			if g.NNZ() != nnz {
				t.Fatalf("blocks hold %d entries, want %d", g.NNZ(), nnz)
			}
			if lo, _ := g.RowRange(0); lo != tc.lo {
				t.Fatalf("first block row starts at %d, want %d", lo, tc.lo)
			}
			if _, hi := g.RowRange(g.NBR - 1); hi != tc.hi {
				t.Fatalf("last block row ends at %d, want %d", hi, tc.hi)
			}
			for br := 0; br < g.NBR; br++ {
				rlo, rhi := g.RowRange(br)
				if g.Offsets[br*g.NBC] == g.Offsets[(br+1)*g.NBC] {
					t.Fatalf("block row %d [%d,%d) holds no ratings", br, rlo, rhi)
				}
				for bc := 0; bc < g.NBC; bc++ {
					clo, chi := g.ColRange(bc)
					for _, e := range g.Block(br, bc) {
						if int(e.U) < rlo || int(e.U) >= rhi {
							t.Fatalf("entry %v escaped block row range [%d,%d)", e, rlo, rhi)
						}
						if int(e.I) < clo || int(e.I) >= chi {
							t.Fatalf("entry %v escaped block col range [%d,%d)", e, clo, chi)
						}
					}
				}
			}
		})
	}
}

func TestNewBlockGridErrors(t *testing.T) {
	m := randomCOO(31, 4, 4, 8)
	if _, err := NewBlockGrid(m, 0, 4, 0, 2); err == nil {
		t.Fatal("zero block rows accepted")
	}
	if _, err := NewBlockGrid(m, 0, 4, 2, 0); err == nil {
		t.Fatal("zero block cols accepted")
	}
	if _, err := NewBlockGrid(m, 0, 4, 5, 2); err == nil {
		t.Fatal("grid larger than matrix accepted")
	}
	if _, err := NewBlockGrid(m, 0, 5, 2, 2); err == nil {
		t.Fatal("row band past the matrix accepted")
	}
}

func TestBlockGridRangesPartition(t *testing.T) {
	g := &BlockGridded{RowLo: 5, RowHi: 15, Cols: 7, NBR: 3, NBC: 2}
	last := g.RowLo
	for br := 0; br < g.NBR; br++ {
		lo, hi := g.RowRange(br)
		if lo != last {
			t.Fatalf("row range gap at block %d: lo=%d want %d", br, lo, last)
		}
		if hi <= lo {
			t.Fatalf("empty row range at block %d", br)
		}
		last = hi
	}
	if last != g.RowHi {
		t.Fatalf("row ranges end at %d, want %d", last, g.RowHi)
	}
}

// Property: any valid weight vector yields a contiguous exact partition.
func TestCutRowGridPartitionProperty(t *testing.T) {
	f := func(seed uint64, w1, w2, w3 uint8) bool {
		weights := []float64{float64(w1) + 1, float64(w2) + 1, float64(w3) + 1}
		m := randomCOO(seed, 200, 50, 5000)
		c := NewCSRFromCOO(m)
		slices, err := CutRowGrid(c, weights)
		if err != nil {
			return false
		}
		if slices[0].Lo != 0 || slices[2].Hi != 200 {
			return false
		}
		var nnz int64
		for i, s := range slices {
			if i > 0 && s.Lo != slices[i-1].Hi {
				return false
			}
			nnz += s.NNZ
		}
		return nnz == int64(m.NNZ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BlockOrder is a stable sort by (block, row, col): it equals a reference
// stable sort position for position, repeated cells (told apart by V)
// included, and its offsets delimit exactly each block's entries. The
// inputs reach both of its scatters: shuffled entries, and row-major ones
// (the order shards are cut in), placed one block row at a time, with
// long and with short row runs per block, over the whole row axis and
// over a band of it. The 300k-entry inputs are cut into several chunks
// whenever GOMAXPROCS > 1, so under `-cpu 1,2,4,8` they check that the
// parallel passes give the serial order: uniform and power-law (a few hot
// rows and columns hold most ratings) entries, one row holding thousands
// of ratings in one block with repeated cells, and the async streams'
// shape, one block row over uneven column tiles whose first tile holds
// half the ratings.
func TestBlockOrderMatchesStableSort(t *testing.T) {
	const big = 300_000
	uniform := func(rowLo, rows, cols int) func(*Rand) Rating {
		return func(rng *Rand) Rating {
			return Rating{U: int32(rowLo + rng.Intn(rows-rowLo)), I: int32(rng.Intn(cols))}
		}
	}
	powerLaw := func(rows, cols int) func(*Rand) Rating {
		return func(rng *Rand) Rating {
			u, i := rng.Float64(), rng.Float64()
			return Rating{U: int32(float64(rows) * u * u * u * u), I: int32(float64(cols) * i * i * i * i)}
		}
	}
	hotRow := func(rng *Rand) Rating {
		if rng.Intn(10) == 0 {
			return Rating{U: 7, I: int32(rng.Intn(8))}
		}
		return Rating{U: int32(rng.Intn(2000)), I: int32(rng.Intn(700))}
	}
	for _, tc := range []struct {
		name     string
		n        int
		draw     func(*Rand) Rating
		rowMajor bool
		ra, ca   Axis
	}{
		{"shuffled", 5000, uniform(0, 50, 70), false, EvenAxis(0, 50, 3), EvenAxis(0, 70, 4)},
		{"row-major, long runs", 5000, uniform(0, 50, 70), true, EvenAxis(0, 50, 3), EvenAxis(0, 70, 4)},
		{"row-major, short runs", 5000, uniform(0, 2000, 70), true, EvenAxis(0, 2000, 3), EvenAxis(0, 70, 4)},
		{"row-major, row band", 5000, uniform(600, 2000, 70), true, EvenAxis(600, 2000, 3), EvenAxis(0, 70, 4)},
		{"big, shuffled", big, uniform(0, 5000, 900), false, EvenAxis(0, 5000, 16), EvenAxis(0, 900, 16)},
		{"big, row-major", big, uniform(0, 5000, 900), true, EvenAxis(0, 5000, 16), EvenAxis(0, 900, 16)},
		{"power-law, shuffled", big, powerLaw(20000, 3000), false, EvenAxis(0, 20000, 16), EvenAxis(0, 3000, 16)},
		{"power-law, row-major", big, powerLaw(20000, 3000), true, EvenAxis(0, 20000, 16), EvenAxis(0, 3000, 16)},
		{"hot row, shuffled", big, hotRow, false, EvenAxis(0, 2000, 16), EvenAxis(0, 700, 16)},
		{"hot row, row-major", big, hotRow, true, EvenAxis(0, 2000, 16), EvenAxis(0, 700, 16)},
		{"tile axis, row-major", big, powerLaw(20000, 3000), true, Axis{N: 1}, tileAxis([]int{0, 40, 3000}, 256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := NewRand(37)
			entries := make([]Rating, tc.n)
			for i := range entries {
				entries[i] = tc.draw(rng)
				entries[i].V = float32(i)
			}
			if tc.rowMajor {
				slices.SortFunc(entries, func(x, y Rating) int {
					return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
				})
			}
			checkBlockOrder(t, entries, tc.ra, tc.ca)
		})
	}
}

// TestBlockOrderAllocBounded bounds BlockOrder's scratch on a grid of a
// million blocks, where the block count, not the entries, sets it. Such a
// grid is one chunk at any GOMAXPROCS, and one chunk counts straight into
// the offsets: the returned offsets are the only block-sized array of a
// row-major input, and a shuffled one adds one array of block cursors.
// Both also hold a scratch copy of at most the entries.
func TestBlockOrderAllocBounded(t *testing.T) {
	const side, n = 1000, 200_000
	ra, ca := EvenAxis(0, 10*side, side), EvenAxis(0, 10*side, side)
	nb := side * side
	for _, tc := range []struct {
		name     string
		rowMajor bool
		arrays   int
	}{
		{"row-major", true, 1},
		{"shuffled", false, 2},
	} {
		rng := NewRand(5)
		entries := make([]Rating, n)
		for i := range entries {
			entries[i] = Rating{U: int32(rng.Intn(10 * side)), I: int32(rng.Intn(10 * side))}
		}
		if tc.rowMajor {
			slices.SortStableFunc(entries, func(x, y Rating) int { return cmp.Compare(x.U, y.U) })
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BlockOrder(entries, ra, ca)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := uint64(tc.arrays*8*(nb+1) + 12*n + 1<<20)
		if got > limit {
			t.Fatalf("%s: allocated %d bytes, want <= %d", tc.name, got, limit)
		}
	}
}

// tileAxis cuts each item slice [cuts[j], cuts[j+1]) into tiles of width
// tc, numbered across slices: the shape of the async streams' tile axis.
func tileAxis(cuts []int, tc int) Axis {
	of := make([]int32, cuts[len(cuts)-1])
	first := 0
	for j := 0; j+1 < len(cuts); j++ {
		for i := cuts[j]; i < cuts[j+1]; i++ {
			of[i] = int32(first + (i-cuts[j])/tc)
		}
		first += (cuts[j+1] - cuts[j] + tc - 1) / tc
	}
	return Axis{Of: of, N: first}
}

func checkBlockOrder(t *testing.T, entries []Rating, ra, ca Axis) {
	t.Helper()
	block := func(e Rating) int { return ra.at(e.U)*ca.N + ca.at(e.I) }
	// Every entry's V is its input position, so ordering ties by V is
	// the stable sort.
	type keyed struct {
		b int
		e Rating
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		ks[i] = keyed{block(e), e}
	}
	slices.SortFunc(ks, func(x, y keyed) int {
		return cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.e.U, y.e.U),
			cmp.Compare(x.e.I, y.e.I), cmp.Compare(x.e.V, y.e.V))
	})
	want := make([]Rating, len(ks))
	for i, k := range ks {
		want[i] = k.e
	}
	off := BlockOrder(entries, ra, ca)
	for i := range entries {
		if entries[i] != want[i] {
			t.Fatalf("position %d = %+v, stable sort has %+v", i, entries[i], want[i])
		}
	}
	nb := ra.N * ca.N
	if len(off) != nb+1 || off[0] != 0 || off[nb] != len(entries) {
		t.Fatalf("offsets %v", off)
	}
	for b := 0; b < nb; b++ {
		for _, e := range entries[off[b]:off[b+1]] {
			if block(e) != b {
				t.Fatalf("entry %+v of block %d sits in block %d's range", e, block(e), b)
			}
		}
	}
}

// BenchmarkBlockOrder lays out one worker's shard at train-cached's shape:
// 2.2 M ratings over 12,000 rows and 888 columns on a 16×16 grid, from
// the row-major order sparse.RowShards cuts shards in. Its ratings are
// uniform, so every row run is short: it hid that insertion-sorting each
// (row, block) run is 2–3× slower than BlockOrder on Zipf-skewed data,
// where hot users' runs are long and full of repeated cells. The root
// BenchmarkDataPlane times the layouts on the generated, skewed shards
// the workloads train on.
func BenchmarkBlockOrder(b *testing.B) {
	const rows, cols, nnz, side = 12_000, 888, 2_200_000, 16
	rng := NewRand(38)
	m := NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Add(int32(rng.Intn(rows)), int32(rng.Intn(cols)), 1)
	}
	m.SortByRow()
	src := append([]Rating(nil), m.Entries...)
	ra, ca := EvenAxis(0, rows, side), EvenAxis(0, cols, side)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(m.Entries, src)
		BlockOrder(m.Entries, ra, ca)
	}
}
