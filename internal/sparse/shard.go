package sparse

import "sync"

// Row-grid sharding. BuildWorkerConfs used to materialise one COO copy per
// worker (a full CSR build plus a per-worker gather: O(workers × alloc)
// and ~2 extra passes over the entry stream). RowShards replaces that with
// views: every shard's Entries is a sub-slice of one shared row-major
// backing array, produced by a single counting-sort scatter straight from
// the COO. The views are capacity-capped (backing[lo:hi:hi]) so a consumer
// that appends to a shard — the ps eviction path merges a dead worker's
// shard into its heir — reallocates instead of stomping its neighbour.

// shardScratch pools the per-call histograms of RowShards (the row
// prefix index and the per-chunk row counts that become the scatter
// cursors), so grid rebuilds — the eviction path re-shards on every
// worker failure — stop allocating histograms per call. The shard backing
// array itself is NOT pooled: it is handed to the caller.
type shardScratch struct {
	starts []int64
	cnt    []int
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// RowShards cuts m into len(weights) contiguous row-range shards whose nnz
// counts match the weights as closely as a contiguous cut allows (cutGrid's
// greedy cut). Entries within each shard are in row-major order, stable
// within a row — identical to gathering from a CSR, which
// TestRowShardsMatchesCSRGather checks against a CSR oracle.
//
// The counting sort runs over chunks of the entries in parallel: each
// chunk counts its rows, the cursors are laid out chunk-major (a row's
// entries from chunk c land after those from chunks before c), and each
// chunk scatters its own entries. The result is the serial stable sort.
//
// All shards share one backing array; each view's capacity is capped at
// its own end, so growing one shard never corrupts another.
func RowShards(m *COO, weights []float64) ([]Slice, []*COO, error) {
	sc := shardScratchPool.Get().(*shardScratch)
	defer shardScratchPool.Put(sc)
	n, rows := len(m.Entries), m.Rows
	nch := chunkCount(n, rows)
	if cap(sc.cnt) < nch*rows {
		sc.cnt = make([]int, nch*rows)
	}
	cnt := sc.cnt[:nch*rows]
	clear(cnt)
	eachChunk(n, nch, func(c, lo, hi int) {
		h := cnt[c*rows : (c+1)*rows]
		for _, e := range m.Entries[lo:hi] {
			h[e.U]++
		}
	})
	if cap(sc.starts) < rows+1 {
		sc.starts = make([]int64, rows+1)
	}
	starts := sc.starts[:rows+1]
	starts[0] = 0
	for r := 0; r < rows; r++ {
		var k int64
		for c := 0; c < nch; c++ {
			k += int64(cnt[c*rows+r])
		}
		starts[r+1] = starts[r] + k
	}
	slices, err := cutGrid(starts, rows, weights)
	if err != nil {
		return nil, nil, err
	}
	chunkCursors(cnt, rows, func(r int) int { return int(starts[r]) })
	backing := make([]Rating, n)
	eachChunk(n, nch, func(c, lo, hi int) {
		next := cnt[c*rows : (c+1)*rows]
		for _, e := range m.Entries[lo:hi] {
			backing[next[e.U]] = e
			next[e.U]++
		}
	})
	shards := make([]*COO, len(slices))
	for i, sl := range slices {
		lo, hi := starts[sl.Lo], starts[sl.Hi]
		shards[i] = &COO{Rows: m.Rows, Cols: m.Cols, Entries: backing[lo:hi:hi]}
	}
	return slices, shards, nil
}
