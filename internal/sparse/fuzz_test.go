package sparse

import (
	"sort"
	"testing"
)

// FuzzCOOCSRGridRoundTrip drives arbitrary entry sets through the
// COO → CSR → COO conversion and the block-grid bucketing, checking the
// structural invariants every partitioning layer above relies on: no
// entry is ever lost or invented (NNZ preserved), per-row/column
// histograms survive the round trip, the CSR index validates, and every
// entry lands in exactly the grid cell whose row/column range covers it.
// fp16 and dataset already carry fuzz targets; this covers the remaining
// parser-shaped surface between raw triplets and worker shards.
func FuzzCOOCSRGridRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(5), uint8(2), uint8(2), []byte{0, 0, 1, 1, 2, 3, 3, 4})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), []byte{})
	f.Add(uint8(16), uint8(3), uint8(4), uint8(3), []byte{7, 1, 9, 2, 15, 0, 3, 2, 7, 1})
	f.Fuzz(func(t *testing.T, rowsB, colsB, nbrB, nbcB uint8, raw []byte) {
		rows := int(rowsB)%64 + 1
		cols := int(colsB)%64 + 1
		m := NewCOO(rows, cols, len(raw)/2)
		for p := 0; p+1 < len(raw); p += 2 {
			u := int32(int(raw[p]) % rows)
			i := int32(int(raw[p+1]) % cols)
			v := float32(p%7) - 3
			if err := m.Append(u, i, v); err != nil {
				t.Fatalf("in-range Append rejected (%d,%d): %v", u, i, err)
			}
		}

		c := NewCSRFromCOO(m)
		if err := c.Validate(); err != nil {
			t.Fatalf("CSR from valid COO does not validate: %v", err)
		}
		if c.NNZ() != m.NNZ() {
			t.Fatalf("CSR nnz = %d, COO nnz = %d", c.NNZ(), m.NNZ())
		}

		back := c.ToCOO()
		if back.NNZ() != m.NNZ() {
			t.Fatalf("round-trip nnz = %d, want %d", back.NNZ(), m.NNZ())
		}
		if !sameHistogram(m.RowCounts(), back.RowCounts()) {
			t.Fatal("round trip changed per-row entry counts")
		}
		if !sameHistogram(m.ColCounts(), back.ColCounts()) {
			t.Fatal("round trip changed per-column entry counts")
		}
		if !sameEntryMultiset(m, back) {
			t.Fatal("round trip changed the entry multiset")
		}

		nbr := int(nbrB)%rows + 1
		nbc := int(nbcB)%cols + 1
		g, err := NewBlockGrid(m, 0, rows, nbr, nbc)
		if err != nil {
			t.Fatalf("NewBlockGrid(%d,%d) on %dx%d: %v", nbr, nbc, rows, cols, err)
		}
		if g.NNZ() != m.NNZ() {
			t.Fatalf("grid nnz = %d, want %d", g.NNZ(), m.NNZ())
		}
		for br := 0; br < nbr; br++ {
			for bc := 0; bc < nbc; bc++ {
				rlo, rhi := g.RowRange(br)
				clo, chi := g.ColRange(bc)
				for _, e := range g.Block(br, bc) {
					if int(e.U) < rlo || int(e.U) >= rhi || int(e.I) < clo || int(e.I) >= chi {
						t.Fatalf("entry (%d,%d) in block (%d,%d) outside its range rows [%d,%d) cols [%d,%d)",
							e.U, e.I, br, bc, rlo, rhi, clo, chi)
					}
				}
			}
		}

		// Gridding the round-tripped matrix must bucket identically.
		g2, err := NewBlockGrid(back, 0, rows, nbr, nbc)
		if err != nil {
			t.Fatalf("NewBlockGrid on round-tripped COO: %v", err)
		}
		for b := range g.Offsets {
			if g.Offsets[b] != g2.Offsets[b] {
				t.Fatalf("block offset %d = %d, round-tripped %d", b, g.Offsets[b], g2.Offsets[b])
			}
		}
	})
}

func sameHistogram(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameEntryMultiset(a, b *COO) bool {
	sa, sb := a.Clone().Entries, b.Clone().Entries
	less := func(s []Rating) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].U != s[j].U {
				return s[i].U < s[j].U
			}
			if s[i].I != s[j].I {
				return s[i].I < s[j].I
			}
			return s[i].V < s[j].V
		}
	}
	sort.Slice(sa, less(sa))
	sort.Slice(sb, less(sb))
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
