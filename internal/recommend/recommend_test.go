package recommend

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// tableScorer predicts from a fixed dense table, making expected rankings
// exact.
type tableScorer struct {
	items  int
	scores []float32 // row-major users×items
}

func (s *tableScorer) Predict(u, i int32) float32 {
	return s.scores[int(u)*s.items+int(i)]
}

func newTable(users, items int, fill func(u, i int) float32) *tableScorer {
	s := &tableScorer{items: items, scores: make([]float32, users*items)}
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			s.scores[u*items+i] = fill(u, i)
		}
	}
	return s
}

// newSvc builds a Service over model, closed when the test ends.
func newSvc(t *testing.T, model Scorer, users, items int, cfg ServiceConfig) *Service {
	t.Helper()
	svc, err := NewService(model, users, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// topN is one single-user query into a fresh buffer.
func topN(t *testing.T, svc *Service, u int32, n int) []Item {
	t.Helper()
	got, err := svc.TopNInto(u, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTopNExactOrder(t *testing.T) {
	// Score = item id → top-3 must be the three largest ids, descending.
	s := newTable(2, 10, func(u, i int) float32 { return float32(i) })
	top := topN(t, newSvc(t, s, 2, 10, ServiceConfig{Shards: 3}), 0, 3)
	want := []int32{9, 8, 7}
	for idx, it := range top {
		if it.ID != want[idx] {
			t.Fatalf("top = %+v, want ids %v", top, want)
		}
	}
	if top[0].Score != 9 {
		t.Fatalf("score = %v", top[0].Score)
	}
}

func TestTopNExcludesSeen(t *testing.T) {
	s := newTable(1, 6, func(u, i int) float32 { return float32(i) })
	svc := newSvc(t, s, 1, 6, ServiceConfig{})
	train := sparse.NewCOO(1, 6, 2)
	train.Add(0, 5, 1)
	train.Add(0, 4, 1)
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	top := topN(t, svc, 0, 2)
	if top[0].ID != 3 || top[1].ID != 2 {
		t.Fatalf("seen items not excluded: %+v", top)
	}
}

func TestMarkSeenDedupsAndValidates(t *testing.T) {
	s := newTable(2, 4, func(u, i int) float32 { return 0 })
	svc := newSvc(t, s, 2, 4, ServiceConfig{})
	wrong := sparse.NewCOO(3, 4, 0)
	if err := svc.MarkSeen(wrong); err == nil {
		t.Fatal("mismatched matrix accepted")
	}
	train := sparse.NewCOO(2, 4, 3)
	train.Add(0, 2, 1)
	train.Add(0, 2, 2) // duplicate rating
	train.Add(0, 1, 1)
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	if got := svc.seen.row(0); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("seen = %v, want deduped [1 2]", got)
	}
	if !svc.seen.has(0, 2) || svc.seen.has(0, 3) || svc.seen.has(1, 2) {
		t.Fatal("has wrong")
	}
	// The seen set is loaded once: a second call is refused and leaves
	// the first one's rows.
	more := sparse.NewCOO(2, 4, 1)
	more.Add(1, 3, 1)
	if err := svc.MarkSeen(more); err == nil {
		t.Fatal("second MarkSeen accepted")
	}
	if svc.seen.has(1, 3) || !svc.seen.has(0, 1) {
		t.Fatal("refused MarkSeen changed the seen set")
	}
}

// TestMarkSeenIncrementalEqualsMerged: a seen set gathered in two halves
// is marked in one call over the halves laid end to end, and must index
// exactly the rows of the interleaved merge, sorted and deduplicated
// across the halves. Marking the halves one call each is refused.
func TestMarkSeenIncrementalEqualsMerged(t *testing.T) {
	const users, items = 20, 30
	rng := sparse.NewRand(5)
	a := sparse.NewCOO(users, items, 0)
	b := sparse.NewCOO(users, items, 0)
	merged := sparse.NewCOO(users, items, 0)
	for c := 0; c < 200; c++ {
		u, i := int32(rng.Intn(users)), int32(rng.Intn(items))
		if c%2 == 0 {
			a.Add(u, i, 1)
		} else {
			b.Add(u, i, 1)
		}
		merged.Add(u, i, 1)
	}
	// Overlap: some items rated in both halves must still dedup.
	a.Add(3, 7, 1)
	b.Add(3, 7, 1)
	merged.Add(3, 7, 1)
	merged.Add(3, 7, 1)

	s := newTable(users, items, func(u, i int) float32 { return 0 })
	halves := newSvc(t, s, users, items, ServiceConfig{})
	if err := halves.MarkSeen(a); err != nil {
		t.Fatal(err)
	}
	if err := halves.MarkSeen(b); err == nil {
		t.Fatal("second MarkSeen accepted")
	}
	ab := sparse.NewCOO(users, items, 0)
	ab.Entries = append(append(ab.Entries, a.Entries...), b.Entries...)
	two := newSvc(t, s, users, items, ServiceConfig{})
	if err := two.MarkSeen(ab); err != nil {
		t.Fatal(err)
	}
	one := newSvc(t, s, users, items, ServiceConfig{})
	if err := one.MarkSeen(merged); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < users; u++ {
		got, want := two.seen.row(u), one.seen.row(u)
		if !slices.Equal(got, want) {
			t.Fatalf("user %d: end-to-end halves seen %v != merged %v", u, got, want)
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
			t.Fatalf("user %d: seen not sorted: %v", u, got)
		}
		for k := 1; k < len(got); k++ {
			if got[k] == got[k-1] {
				t.Fatalf("user %d: seen not deduplicated: %v", u, got)
			}
		}
	}
}

// TestSeenIndexMatchesReference builds the index over unsorted input with
// duplicate cells, empty users and a user who rated every item, and checks
// every row against a sorted, deduplicated reference — and that the
// caller's COO is neither reordered nor written.
func TestSeenIndexMatchesReference(t *testing.T) {
	rng := sparse.NewRand(5)
	for trial := 0; trial < 20; trial++ {
		users, items := 1+rng.Intn(12), 1+rng.Intn(40)
		m := sparse.NewCOO(users, items, 0)
		for c := rng.Intn(3 * users * items); c > 0; c-- {
			u := int32(rng.Intn(users))
			if u%3 == 2 {
				continue // every third user stays empty
			}
			i := int32(rng.Intn(items))
			m.Add(u, i, 1)
			if c%4 == 0 {
				m.Add(u, i, 2) // duplicate cell
			}
		}
		for i := items - 1; i >= 0; i-- {
			m.Add(0, int32(i), 1) // user 0 rated every item
		}
		orig := m.Clone()
		idx, err := newSeenIndex(m, users, items)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.Entries, orig.Entries) {
			t.Fatalf("trial %d: building the index changed the caller's COO", trial)
		}
		want := make([][]int32, users)
		for _, e := range orig.Entries {
			want[e.U] = append(want[e.U], e.I)
		}
		for u := range want {
			slices.Sort(want[u])
			want[u] = slices.Compact(want[u])
			if got := idx.row(int32(u)); !slices.Equal(got, want[u]) {
				t.Fatalf("trial %d user %d: row %v, want %v", trial, u, got, want[u])
			}
		}
		if len(idx.row(0)) != items {
			t.Fatalf("trial %d: all-rated user has %d of %d items", trial, len(idx.row(0)), items)
		}
	}
}

func TestTopNMoreThanAvailable(t *testing.T) {
	s := newTable(1, 3, func(u, i int) float32 { return float32(i) })
	top := topN(t, newSvc(t, s, 1, 3, ServiceConfig{}), 0, 10)
	if len(top) != 3 {
		t.Fatalf("got %d items", len(top))
	}
	if !sort.SliceIsSorted(top, func(a, b int) bool { return top[a].Score > top[b].Score }) {
		t.Fatalf("not sorted: %+v", top)
	}
}

func TestTopNValidation(t *testing.T) {
	s := newTable(2, 2, func(u, i int) float32 { return 0 })
	svc := newSvc(t, s, 2, 2, ServiceConfig{})
	if _, err := svc.TopNInto(-1, 1, nil); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := svc.TopNInto(2, 1, nil); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := svc.TopNInto(0, 0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewService(nil, 1, 1, ServiceConfig{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewService(s, 0, 1, ServiceConfig{}); err == nil {
		t.Fatal("zero users accepted")
	}
}

func TestTopNBatchMatchesSingle(t *testing.T) {
	s := newTable(8, 20, func(u, i int) float32 { return float32((u*7 + i*3) % 13) })
	svc := newSvc(t, s, 8, 20, ServiceConfig{Workers: 4, Shards: 3})
	users := []int32{0, 3, 5, 7}
	batch := make([][]Item, len(users))
	if err := svc.TopNBatch(users, 5, batch); err != nil {
		t.Fatal(err)
	}
	for idx, u := range users {
		if single := topN(t, svc, u, 5); !equalItems(batch[idx], single) {
			t.Fatalf("user %d: batch %v != single %v", u, batch[idx], single)
		}
	}
}

func TestHitRatePerfectModel(t *testing.T) {
	// A model that scores exactly the held-out items highest must achieve
	// hit rate 1.
	const users, items = 5, 30
	test := sparse.NewCOO(users, items, users)
	held := map[int]int{0: 7, 1: 12, 2: 3, 3: 29, 4: 0}
	for u, i := range held {
		test.Add(int32(u), int32(i), 5)
	}
	s := newTable(users, items, func(u, i int) float32 {
		if held[u] == i {
			return 100
		}
		return float32(i % 7)
	})
	hr, err := newSvc(t, s, users, items, ServiceConfig{Workers: 2}).HitRateAtN(test, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hr != 1 {
		t.Fatalf("hit rate = %v, want 1", hr)
	}
}

func TestHitRateRandomModelIsLow(t *testing.T) {
	const users, items = 40, 200
	rng := sparse.NewRand(9)
	test := sparse.NewCOO(users, items, users)
	for u := 0; u < users; u++ {
		test.Add(int32(u), int32(rng.Intn(items)), 5)
	}
	// Constant scorer: top-N is arbitrary (first N item ids).
	s := newTable(users, items, func(u, i int) float32 { return float32(items - i) })
	hr, err := newSvc(t, s, users, items, ServiceConfig{Workers: 4}).HitRateAtN(test, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 10 of 200 items → expect ~5% hits, certainly below 30%.
	if hr > 0.3 {
		t.Fatalf("uninformed model hit rate %v suspiciously high", hr)
	}
}

func TestEvalValidation(t *testing.T) {
	s := newTable(2, 2, func(u, i int) float32 { return 0 })
	svc := newSvc(t, s, 2, 2, ServiceConfig{MaxN: 1})
	bad := sparse.NewCOO(3, 2, 0)
	if _, err := svc.HitRateAtN(bad, 1); err == nil {
		t.Fatal("mismatched test matrix accepted")
	}
	empty := sparse.NewCOO(2, 2, 0)
	if _, err := svc.HitRateAtN(empty, 1); err == nil {
		t.Fatal("empty test set accepted")
	}
	one := sparse.NewCOO(2, 2, 1)
	one.Add(1, 0, 1)
	if _, err := svc.HitRateAtN(one, 2); err == nil {
		t.Fatal("n beyond MaxN accepted")
	}
}

// TestTopNTieOrderGolden pins the tie-breaking contract on a tie-heavy
// model: scores are quantized to three levels, so nearly every rank
// decision is a tie, and the expected order is computable by hand —
// descending score, ascending item ID within a score level.
func TestTopNTieOrderGolden(t *testing.T) {
	// 12 items, score = 2 - (i % 3): items ≡0 (mod 3) score 2, ≡1 score 1,
	// ≡2 score 0.
	s := newTable(1, 12, func(u, i int) float32 { return float32(2 - i%3) })
	want := []int32{0, 3, 6, 9, 1, 4, 7} // all four score-2 ids, then score-1 ids
	for _, shards := range []int{1, 5} {
		svc := newSvc(t, s, 1, 12, ServiceConfig{Workers: 2, Shards: shards})
		top := topN(t, svc, 0, len(want))
		if len(top) != len(want) {
			t.Fatalf("got %d items, want %d", len(top), len(want))
		}
		for idx, it := range top {
			if it.ID != want[idx] {
				t.Fatalf("shards=%d: tie order drifted at rank %d: got %+v, want ids %v", shards, idx, top, want)
			}
		}
		// The same query through the batch path must agree bit for bit.
		batch := make([][]Item, 2)
		if err := svc.TopNBatch([]int32{0, 0}, len(want), batch); err != nil {
			t.Fatal(err)
		}
		if !equalItems(batch[0], top) || !equalItems(batch[1], top) {
			t.Fatalf("shards=%d: batch %v disagrees with single %v", shards, batch, top)
		}
	}
}

// TestTopNBatchReportsFailingUser: an out-of-range user in a batch must
// surface an error naming that user and its index, before any row is
// scored.
func TestTopNBatchReportsFailingUser(t *testing.T) {
	s := newTable(4, 6, func(u, i int) float32 { return float32(i) })
	svc := newSvc(t, s, 4, 6, ServiceConfig{Workers: 2})
	users := []int32{0, 9, 2} // 9 is out of range
	out := make([][]Item, len(users))
	err := svc.TopNBatch(users, 2, out)
	if err == nil {
		t.Fatal("out-of-range batch user accepted")
	}
	if !strings.Contains(err.Error(), "user 9") || !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("error does not identify the failing user: %v", err)
	}
	for i, row := range out {
		if row != nil {
			t.Fatalf("row %d scored despite the failed validation: %v", i, row)
		}
	}
}

// End-to-end with a real trained model: recommendations from a factor
// model trained on planted structure beat chance.
func TestRecommenderWithTrainedFactors(t *testing.T) {
	rng := sparse.NewRand(13)
	const users, items, k = 120, 80, 8
	// Plant structure and train.
	pf := make([]float32, users*k)
	qf := make([]float32, items*k)
	for i := range pf {
		pf[i] = 0.5 + rng.Float32()
	}
	for i := range qf {
		qf[i] = 0.5 + rng.Float32()
	}
	all := sparse.NewCOO(users, items, 6000)
	for c := 0; c < 6000; c++ {
		u, i := rng.Intn(users), rng.Intn(items)
		var dot float32
		for f := 0; f < k; f++ {
			dot += pf[u*k+f] * qf[i*k+f]
		}
		all.Add(int32(u), int32(i), dot)
	}
	all.Shuffle(rng)
	train, test, err := all.SplitTrainTest(rng, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	f := mf.NewFactorsInit(users, items, k, train.MeanRating(), rng)
	h := mf.HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	for e := 0; e < 30; e++ {
		mf.TrainEntries(f, train.Entries, h)
	}
	svc := newSvc(t, f, users, items, ServiceConfig{Workers: 4})
	if err := svc.MarkSeen(train); err != nil {
		t.Fatal(err)
	}
	hr, err := svc.HitRateAtN(test, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Chance for ~10 held-out-ish items in top-10 of 80 is low; a trained
	// model should clear 25% comfortably.
	if hr < 0.25 {
		t.Fatalf("trained model hit rate %v barely beats chance", hr)
	}
}
