package related

import "testing"

// The Section 3.3 communication argument, quantified: on tall matrices the
// block grid moves (p+1)(m+n)/(2pn) times the row grid's Q-only traffic —
// approaching (m+n)/2n ≈ 14x on the Netflix shape as p grows, because the
// block grid must ship P rows around while the row grid never moves P.
func TestBlockGridTrafficExceedsRowGrid(t *testing.T) {
	const m, n, k = 480190, 17771, 128 // Netflix shape
	for _, p := range []int{2, 4, 8} {
		grid, err := BlockGridTraffic(m, n, k, p+1)
		if err != nil {
			t.Fatal(err)
		}
		row, err := RowGridQOnlyTraffic(n, k, p)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(grid) / float64(row)
		if ratio < 10 {
			t.Fatalf("p=%d: block grid only %vx the row grid traffic", p, ratio)
		}
		// Closed form check.
		want := float64(p+1) * float64(m+n) / (2 * float64(p) * float64(n))
		if diff := ratio/want - 1; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("p=%d: ratio %v, closed form %v", p, ratio, want)
		}
	}
}

func TestTrafficValidation(t *testing.T) {
	if _, err := BlockGridTraffic(0, 1, 1, 1); err == nil {
		t.Fatal("zero m accepted")
	}
	if _, err := RowGridQOnlyTraffic(1, 0, 1); err == nil {
		t.Fatal("zero k accepted")
	}
}
