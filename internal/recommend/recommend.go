// Package recommend turns trained factor models into what the paper's
// introduction says MF is for: recommendations. It provides top-N item
// retrieval over any prediction model (plain or biased factors), seen-item
// exclusion, parallel batch scoring, the standard ranking metrics
// (hit-rate@N, recall@N) for offline evaluation, and the Service type —
// the request-path engine behind the hccmf-serve daemon.
//
// Ordering contract: top-N results are fully deterministic. Items are
// ranked by descending score, and equal scores break ties by ascending
// item ID — in the bounded heap, in eviction decisions, and in the final
// ordering — so serving responses and HitRateAtN are reproducible across
// refactors and worker counts.
package recommend

import (
	"fmt"
	"sort"
	"sync"

	"hccmf/internal/sparse"
)

// Scorer predicts a rating for a (user, item) pair. *mf.Factors
// satisfies it.
type Scorer interface {
	Predict(u, i int32) float32
}

// Item is one scored recommendation.
type Item struct {
	ID    int32   `json:"id"`
	Score float32 `json:"score"`
}

// weaker is the single ordering predicate of the package: a sorts below b
// (is evicted first, ranks later) when its score is lower, or when the
// scores are equal and its ID is larger. Every heap operation and the
// final descending sort consult only this function, which is what makes
// equal-score results come back in ascending item-ID order everywhere.
func weaker(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// The bounded top-N heap is a manual min-heap (weakest element at the
// root) stored in a plain []Item, usually the caller's result buffer.
// container/heap is deliberately not used: its interface{} Push/Pop box
// every Item, which puts one allocation per candidate on the serving hot
// path. These sift routines allocate nothing.

func siftUp(h []Item, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !weaker(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []Item, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && weaker(h[r], h[l]) {
			m = r
		}
		if !weaker(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pushBounded offers it to the n-bounded heap h: below capacity it is
// inserted; at capacity it replaces the root if and only if the root is
// weaker. Appends stay within the caller's buffer capacity when cap(h)>=n.
func pushBounded(h []Item, n int, it Item) []Item {
	if len(h) < n {
		h = append(h, it)
		siftUp(h, len(h)-1)
		return h
	}
	if weaker(h[0], it) {
		h[0] = it
		siftDown(h, 0)
	}
	return h
}

// sortDesc orders a bounded heap best-first in place (heapsort): the
// weakest root is swapped to the end and the prefix re-sifted, so the
// final order is descending score with ascending-ID ties.
//
// lint:hotpath
func sortDesc(h []Item) {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
}

// scanRange scores items [lo,hi) of the given user against model, skips
// the sorted seen list with a merging cursor (seen is sorted ascending,
// and so is the scan), and maintains the n-bounded heap in h. It is the
// shared scan kernel of Recommender.TopN and the Service shard workers,
// and allocates nothing when cap(h) >= n.
//
// lint:hotpath
func scanRange(model Scorer, u int32, seen []int32, lo, hi int32, n int, h []Item) []Item {
	// Lower-bound the seen cursor at lo so a shard scan skips the prefix.
	c, top := 0, len(seen)
	for c < top {
		mid := (c + top) / 2
		if seen[mid] < lo {
			c = mid + 1
		} else {
			top = mid
		}
	}
	for i := lo; i < hi; i++ {
		if c < len(seen) && seen[c] == i {
			c++
			continue
		}
		h = pushBounded(h, n, Item{ID: i, Score: model.Predict(u, i)})
	}
	return h
}

// seenSet tracks, per user, the sorted deduplicated list of already-rated
// items. Recommender and Service both embed one. mark is incremental: a
// call only re-sorts the rows it touched, so repeated MarkSeen calls cost
// O(touched·s log s), not O(users·s log s).
type seenSet struct {
	rows [][]int32
	// dirty/touched are mark's scratch: dirty flags a row already recorded
	// in touched this call; both are reset before mark returns.
	dirty   []bool
	touched []int32
}

func newSeenSet(users int) seenSet {
	return seenSet{rows: make([][]int32, users)}
}

// mark appends the interactions of train and re-sorts/dedups exactly the
// rows this call touched.
func (ss *seenSet) mark(train *sparse.COO, users, items int) error {
	if train.Rows != users || train.Cols != items {
		return fmt.Errorf("recommend: matrix %dx%d does not match model %dx%d",
			train.Rows, train.Cols, users, items)
	}
	if ss.dirty == nil {
		ss.dirty = make([]bool, users)
	}
	touched := ss.touched[:0]
	for _, e := range train.Entries {
		if !ss.dirty[e.U] {
			ss.dirty[e.U] = true
			touched = append(touched, e.U)
		}
		ss.rows[e.U] = append(ss.rows[e.U], e.I)
	}
	for _, u := range touched {
		ss.dirty[u] = false
		s := ss.rows[u]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		out := s[:0]
		var prev int32 = -1
		for _, v := range s {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		ss.rows[u] = out
	}
	ss.touched = touched[:0]
	return nil
}

// has reports whether user u already rated item i (binary search).
func (ss *seenSet) has(u, i int32) bool {
	s := ss.rows[u]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == i
}

// Recommender serves top-N queries against a model.
type Recommender struct {
	model Scorer
	users int
	items int
	seen  seenSet
}

// New builds a recommender for a model covering users×items.
func New(model Scorer, users, items int) (*Recommender, error) {
	if model == nil {
		return nil, fmt.Errorf("recommend: nil model")
	}
	if users <= 0 || items <= 0 {
		return nil, fmt.Errorf("recommend: dims %dx%d", users, items)
	}
	return &Recommender{model: model, users: users, items: items,
		seen: newSeenSet(users)}, nil
}

// MarkSeen records the training interactions so TopN never recommends an
// item the user has already rated. May be called multiple times; each call
// re-processes only the users present in train, so incremental marking of
// a few users is cheap regardless of the model's total user count.
func (r *Recommender) MarkSeen(train *sparse.COO) error {
	return r.seen.mark(train, r.users, r.items)
}

// hasSeen reports whether user u already rated item i.
func (r *Recommender) hasSeen(u, i int32) bool { return r.seen.has(u, i) }

// TopN returns the user's n highest-scored unseen items, best first
// (descending score, ascending item ID among equal scores).
func (r *Recommender) TopN(u int32, n int) ([]Item, error) {
	if n <= 0 {
		return nil, fmt.Errorf("recommend: n = %d", n)
	}
	return r.TopNInto(u, n, make([]Item, 0, n))
}

// TopNInto is TopN writing into the caller's buffer: the bounded heap is
// built in buf[:0] and sorted best-first in place. With cap(buf) >= n the
// call performs no allocations, which is what keeps the serving hot path
// at 0 allocs/op. The returned slice aliases buf.
//
// lint:hotpath
func (r *Recommender) TopNInto(u int32, n int, buf []Item) ([]Item, error) {
	if u < 0 || int(u) >= r.users {
		return nil, fmt.Errorf("recommend: user %d out of range [0,%d)", u, r.users) // lint:allow hotalloc validation error path, never taken in steady state
	}
	if n <= 0 {
		return nil, fmt.Errorf("recommend: n = %d", n) // lint:allow hotalloc validation error path, never taken in steady state
	}
	h := scanRange(r.model, u, r.seen.rows[u], 0, int32(r.items), n, buf[:0])
	sortDesc(h)
	return h, nil
}

// TopNBatch scores many users on a fixed pool of workers goroutines
// draining an index channel (no goroutine-per-user fan-out); results are
// indexed like users. On error the partial results are returned alongside
// an error identifying the first failing user in index order.
func (r *Recommender) TopNBatch(users []int32, n, workers int) ([][]Item, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(users) {
		workers = len(users)
	}
	out := make([][]Item, len(users))
	errs := make([]error, len(users))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = r.TopN(users[i], n)
			}
		}()
	}
	for i := range users {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("recommend: batch user %d (index %d): %w", users[i], i, err)
		}
	}
	return out, nil
}

// HitRateAtN evaluates the recommender against held-out interactions: the
// fraction of test users for whom at least one held-out item appears in
// their top-N. Users with no test interactions are skipped.
func (r *Recommender) HitRateAtN(test *sparse.COO, n, workers int) (float64, error) {
	users, heldOut, err := r.heldOutUsers(test)
	if err != nil {
		return 0, err
	}
	recs, err := r.TopNBatch(users, n, workers)
	if err != nil {
		return 0, err
	}
	hits := 0
	for idx, u := range users {
		for _, item := range recs[idx] {
			if heldOut[u][item.ID] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(users)), nil
}

// RecallAtN is the average, over test users, of the fraction of each
// user's held-out items retrieved in their top-N.
func (r *Recommender) RecallAtN(test *sparse.COO, n, workers int) (float64, error) {
	users, heldOut, err := r.heldOutUsers(test)
	if err != nil {
		return 0, err
	}
	recs, err := r.TopNBatch(users, n, workers)
	if err != nil {
		return 0, err
	}
	var sum float64
	for idx, u := range users {
		found := 0
		for _, item := range recs[idx] {
			if heldOut[u][item.ID] {
				found++
			}
		}
		sum += float64(found) / float64(len(heldOut[u]))
	}
	return sum / float64(len(users)), nil
}

// heldOutUsers indexes a test matrix by user for the ranking metrics.
func (r *Recommender) heldOutUsers(test *sparse.COO) ([]int32, map[int32]map[int32]bool, error) {
	if test.Rows != r.users || test.Cols != r.items {
		return nil, nil, fmt.Errorf("recommend: test matrix %dx%d does not match model", test.Rows, test.Cols)
	}
	heldOut := make(map[int32]map[int32]bool)
	for _, e := range test.Entries {
		m, ok := heldOut[e.U]
		if !ok {
			m = make(map[int32]bool)
			heldOut[e.U] = m
		}
		m[e.I] = true
	}
	if len(heldOut) == 0 {
		return nil, nil, fmt.Errorf("recommend: empty test set")
	}
	users := make([]int32, 0, len(heldOut))
	for u := range heldOut {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	return users, heldOut, nil
}
