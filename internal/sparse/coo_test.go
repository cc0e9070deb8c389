package sparse

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func mkTestCOO(t *testing.T) *COO {
	t.Helper()
	m := NewCOO(4, 3, 6)
	m.Add(0, 0, 5)
	m.Add(0, 2, 3)
	m.Add(1, 1, 2)
	m.Add(2, 0, 4)
	m.Add(3, 2, 1)
	m.Add(3, 0, 2.5)
	return m
}

func TestCOOAddAndNNZ(t *testing.T) {
	m := mkTestCOO(t)
	if got := m.NNZ(); got != 6 {
		t.Fatalf("NNZ = %d, want 6", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	m := NewCOO(2, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	m.Add(2, 0, 1)
}

func TestCOOAppendError(t *testing.T) {
	m := NewCOO(2, 2, 0)
	if err := m.Append(0, 1, 1); err != nil {
		t.Fatalf("valid Append: %v", err)
	}
	if err := m.Append(0, 2, 1); err == nil {
		t.Fatal("out-of-range Append returned nil error")
	}
	if err := m.Append(-1, 0, 1); err == nil {
		t.Fatal("negative-row Append returned nil error")
	}
}

func TestCOOCloneIsDeep(t *testing.T) {
	m := mkTestCOO(t)
	c := m.Clone()
	c.Entries[0].V = 99
	if m.Entries[0].V == 99 {
		t.Fatal("Clone shares entry storage with original")
	}
}

func TestCOOTransposeRoundTrip(t *testing.T) {
	m := mkTestCOO(t)
	tt := m.Transpose()
	if tt.Rows != m.Cols || tt.Cols != m.Rows {
		t.Fatalf("transpose dims = %dx%d, want %dx%d", tt.Rows, tt.Cols, m.Cols, m.Rows)
	}
	back := tt.Transpose()
	if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
		t.Fatal("double transpose changed shape")
	}
	for i := range m.Entries {
		if m.Entries[i] != back.Entries[i] {
			t.Fatalf("entry %d: %v != %v after double transpose", i, m.Entries[i], back.Entries[i])
		}
	}
}

func TestCOOMeanRating(t *testing.T) {
	m := mkTestCOO(t)
	want := (5 + 3 + 2 + 4 + 1 + 2.5) / 6.0
	if got := m.MeanRating(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanRating = %v, want %v", got, want)
	}
	empty := NewCOO(1, 1, 0)
	if got := empty.MeanRating(); got != 0 {
		t.Fatalf("MeanRating of empty = %v, want 0", got)
	}
}

func TestCOOValidateCatchesNaN(t *testing.T) {
	m := NewCOO(1, 1, 1)
	m.Entries = append(m.Entries, Rating{0, 0, float32(math.NaN())})
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted NaN rating")
	}
}

func TestCOOValidateCatchesCorruptCoordinates(t *testing.T) {
	m := NewCOO(2, 2, 1)
	m.Entries = append(m.Entries, Rating{U: 5, I: 0, V: 1})
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range row")
	}
	m.Entries[0] = Rating{U: 0, I: 5, V: 1}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range col")
	}
}

func TestCOORowColCounts(t *testing.T) {
	m := mkTestCOO(t)
	rc := m.RowCounts()
	wantRC := []int{2, 1, 1, 2}
	for i := range wantRC {
		if rc[i] != wantRC[i] {
			t.Fatalf("RowCounts[%d] = %d, want %d", i, rc[i], wantRC[i])
		}
	}
	cc := m.ColCounts()
	wantCC := []int{3, 1, 2}
	for i := range wantCC {
		if cc[i] != wantCC[i] {
			t.Fatalf("ColCounts[%d] = %d, want %d", i, cc[i], wantCC[i])
		}
	}
}

func TestCOOSortByRow(t *testing.T) {
	m := mkTestCOO(t)
	m.Shuffle(NewRand(7))
	m.SortByRow()
	for i := 1; i < len(m.Entries); i++ {
		a, b := m.Entries[i-1], m.Entries[i]
		if a.U > b.U || (a.U == b.U && a.I > b.I) {
			t.Fatalf("entries not sorted by row at %d: %v then %v", i, a, b)
		}
	}
}

func TestCOOShuffleIsPermutation(t *testing.T) {
	m := mkTestCOO(t)
	orig := m.Clone()
	m.Shuffle(NewRand(42))
	if m.NNZ() != orig.NNZ() {
		t.Fatal("Shuffle changed NNZ")
	}
	// Multiset equality via sorting both.
	m.SortByRow()
	orig.SortByRow()
	for i := range orig.Entries {
		if m.Entries[i] != orig.Entries[i] {
			t.Fatalf("Shuffle is not a permutation: %v vs %v", m.Entries[i], orig.Entries[i])
		}
	}
}

func TestCOOShuffleDeterministic(t *testing.T) {
	a, b := mkTestCOO(t), mkTestCOO(t)
	a.Shuffle(NewRand(5))
	b.Shuffle(NewRand(5))
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatal("same-seed shuffles diverged")
		}
	}
}

func TestCOOSplitTrainTest(t *testing.T) {
	m := NewCOO(100, 100, 0)
	rng := NewRand(1)
	for i := 0; i < 10000; i++ {
		m.Add(int32(rng.Intn(100)), int32(rng.Intn(100)), 1)
	}
	train, test, err := m.SplitTrainTest(NewRand(2), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if train.NNZ()+test.NNZ() != m.NNZ() {
		t.Fatalf("split lost entries: %d + %d != %d", train.NNZ(), test.NNZ(), m.NNZ())
	}
	frac := float64(test.NNZ()) / float64(m.NNZ())
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("test fraction %v too far from 0.2", frac)
	}
	if train.Rows != m.Rows || test.Cols != m.Cols {
		t.Fatal("split changed dimensions")
	}
}

// TestSplitTrainTestMatchesAppendLoop checks the split against a serial
// oracle, the plain append loop over one draw per entry, at sizes that
// are cut into several chunks whenever GOMAXPROCS > 1, at sizes that are
// no multiple of the bitmap's 64-bit word, and at both ends of testFrac.
// Both sides must be exact-size, and the rng must end in the oracle's
// state.
func TestSplitTrainTestMatchesAppendLoop(t *testing.T) {
	for _, tc := range []struct {
		n    int
		frac float64
	}{{300_000, 0.1}, {300_001, 0.5}, {131_137, 0.9}, {1000, 0.1}, {63, 0.3}, {0, 0.1}, {70_000, 0}} {
		m := NewCOO(1000, 500, tc.n)
		rng := NewRand(uint64(tc.n))
		for i := 0; i < tc.n; i++ {
			m.Add(int32(rng.Intn(1000)), int32(rng.Intn(500)), float32(i))
		}
		var wantTrain, wantTest []Rating
		oracle := NewRand(5)
		threshold := uint64(tc.frac * float64(math.MaxUint64))
		for _, e := range m.Entries {
			if oracle.Uint64() < threshold {
				wantTest = append(wantTest, e)
			} else {
				wantTrain = append(wantTrain, e)
			}
		}
		rng = NewRand(5)
		train, test, err := m.SplitTrainTest(rng, tc.frac)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(train.Entries, wantTrain) || !slices.Equal(test.Entries, wantTest) {
			t.Fatalf("n=%d frac=%v: split differs from the append loop", tc.n, tc.frac)
		}
		if cap(train.Entries) != len(train.Entries) || cap(test.Entries) != len(test.Entries) {
			t.Fatalf("n=%d: capacities %d and %d, want exact %d and %d", tc.n,
				cap(train.Entries), cap(test.Entries), len(train.Entries), len(test.Entries))
		}
		if got, want := rng.Uint64(), oracle.Uint64(); got != want {
			t.Fatalf("n=%d: rng left at a different state", tc.n)
		}
	}
}

func TestCOOSplitTrainTestRejectsBadFrac(t *testing.T) {
	m := mkTestCOO(t)
	for _, frac := range []float64{-0.1, 1.0, 1.5} {
		if _, _, err := m.SplitTrainTest(NewRand(1), frac); err == nil {
			t.Fatalf("SplitTrainTest(frac=%v) did not error", frac)
		}
	}
}

// Property: sorting never changes the multiset of entries.
func TestCOOSortPreservesEntriesProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := NewRand(seed)
		m := NewCOO(17, 13, int(n))
		for i := 0; i < int(n); i++ {
			m.Add(int32(rng.Intn(17)), int32(rng.Intn(13)), rng.Float32())
		}
		counts := map[Rating]int{}
		for _, e := range m.Entries {
			counts[e]++
		}
		m.SortByRow()
		for _, e := range m.Entries {
			counts[e]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return m.NNZ() == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
