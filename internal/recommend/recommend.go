// Package recommend turns trained factor models into what the paper's
// introduction says MF is for: recommendations. Its one scoring type,
// Service, answers top-N queries over any prediction model (plain or
// biased factors) with seen-item exclusion, single-user and batch, and
// evaluates hit-rate@N on held-out ratings. It is the engine behind
// hccmf-serve, hccmf-recommend and hccmf-train -recommend.
//
// Ordering contract: top-N results are fully deterministic. Items are
// ranked by descending score, and equal scores break ties by ascending
// item ID — in the bounded heap, in eviction decisions, and in the final
// ordering — so serving responses and HitRateAtN are reproducible across
// refactors and worker counts.
package recommend

import (
	"fmt"
	"slices"

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
// the ascending seen row with a merging cursor (the scan ascends too), and
// maintains the n-bounded heap in h. It is the scan kernel of every
// Service task and allocates nothing when cap(h) >= n.
//
// lint:hotpath
func scanRange(model Scorer, u int32, seen []int32, lo, hi int32, n int, h []Item) []Item {
	// Lower-bound the seen cursor at lo so a shard scan skips the prefix.
	c, _ := slices.BinarySearch(seen, lo)
	for i := lo; i < hi; i++ {
		if c < len(seen) && seen[c] == i {
			c++
			continue
		}
		h = pushBounded(h, n, Item{ID: i, Score: model.Predict(u, i)})
	}
	return h
}

// seenIndex is a set of (user, item) cells in CSR form: user u's items
// are items[off[u]:off[u+1]], ascending and without duplicates. A zero
// seenIndex is empty and unbuilt.
type seenIndex struct {
	off   []int
	items []int32
}

// newSeenIndex indexes the cells of m, which must cover users×items. Two
// stable counting passes, by item and then by user, leave each row in
// ascending item order; duplicates are then dropped in place. m is only
// read.
func newSeenIndex(m *sparse.COO, users, items int) (seenIndex, error) {
	if m.Rows != users || m.Cols != items {
		return seenIndex{}, fmt.Errorf("recommend: matrix %dx%d does not match model %dx%d",
			m.Rows, m.Cols, users, items)
	}
	// Pass 1: the cells' users, grouped by item. end[i] runs as item i's
	// cursor and ends at its close.
	end := make([]int, items+1)
	for _, e := range m.Entries {
		end[e.I+1]++
	}
	for i := 1; i <= items; i++ {
		end[i] += end[i-1]
	}
	byItem := make([]int32, len(m.Entries))
	for _, e := range m.Entries {
		byItem[end[e.I]] = e.U
		end[e.I]++
	}
	// Pass 2: deal the cells to their users' rows in ascending item order,
	// with off[u] as row u's cursor in the same way.
	off := make([]int, users+1)
	for _, e := range m.Entries {
		off[e.U+1]++
	}
	for u := 1; u <= users; u++ {
		off[u] += off[u-1]
	}
	cells := make([]int32, len(m.Entries))
	lo := 0
	for i := 0; i < items; i++ {
		for _, u := range byItem[lo:end[i]] {
			cells[off[u]] = int32(i)
			off[u]++
		}
		lo = end[i]
	}
	// Drop duplicate cells, which sit next to each other in a row, and
	// turn the row ends back into offsets.
	w := 0
	lo = 0
	for u := 0; u < users; u++ {
		first := w
		for _, i := range cells[lo:off[u]] {
			if w == first || cells[w-1] != i {
				cells[w] = i
				w++
			}
		}
		lo, off[u] = off[u], w
	}
	copy(off[1:], off[:users])
	off[0] = 0
	return seenIndex{off: off, items: cells[:w]}, nil
}

// row returns user u's items, ascending (nil before the index is built).
func (s *seenIndex) row(u int32) []int32 {
	if s.off == nil {
		return nil
	}
	return s.items[s.off[u]:s.off[u+1]]
}

// has reports whether cell (u, i) is in the index.
func (s *seenIndex) has(u, i int32) bool {
	_, ok := slices.BinarySearch(s.row(u), i)
	return ok
}
