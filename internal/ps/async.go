package ps

import (
	"fmt"
	"sync"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/sparse"
)

// Asynchronous computing-transmission (paper Section 3.4, Strategy 3;
// Figure 6): each worker runs Streams concurrent pull→compute→push
// pipelines. A stream owns one item-range slice of Q: it pulls only that
// slice, trains the shard entries whose items fall inside it, and pushes
// the slice back — so the per-epoch feature traffic stays one Q per worker
// while one stream's transfers overlap the others' compute.
//
// The slices are cut by rating count, not item count (ratingSlices), so
// the streams carry equal compute. Under skewed item popularity this makes
// the slices very unequal in width: the hot slice is a few hundred items
// and transfers in a fraction of the time the long tail's slice needs, so
// exposed transfer time no longer drops to ~1/Streams per stream. Each
// stream walks its entries tile-major over L2-sized column tiles of its
// slice (sliceChunks), so even the wide tail slice keeps its Q rows in
// cache while P streams.
//
// Two consequences the paper calls out are reproduced faithfully:
//
//   - Streams of one worker update the same local P rows concurrently
//     (a user's ratings span item slices). This is lock-free by design —
//     the Hogwild! argument — and some updates are overwritten, which is
//     the "small part of the training results is lost" effect of
//     Figure 7(b)/(e). Like the Hogwild engines, these races are
//     intentional; tests exercising them are skipped under -race.
//   - The server synchronises mid-epoch: a Q slice is folded as soon as
//     every worker's stream has pushed it, overlapping the remaining
//     slices' computation instead of queueing after the slowest worker.

// runEpochAsync executes one epoch in asynchronous mode.
func (c *Cluster) runEpochAsync(epoch, total int) error {
	streams := c.cfg.Strategy.Streams

	coord := c.coordinator(streams)
	workers, errs := c.runPhase(func(ws *workerState) error {
		return c.workerEpochAsync(ws, coord, epoch, total)
	})
	evicted, err := c.settle(epoch, workers, errs)
	if err != nil {
		return err
	}
	// Slices an evicted worker never delivered must still fold — the
	// survivors' pushes are in the buffers waiting on its arrival count.
	for _, ws := range evicted {
		coord.drop(ws)
	}
	// Publish once the epoch's folds have all landed. Mid-epoch folds need
	// no earlier publish: within an epoch every pull of a slice precedes
	// its fold, so remote pulls correctly see the epoch-start model.
	return c.publishGlobal(!c.cfg.Strategy.QOnly || epoch == total-1)
}

// workerEpochAsync runs one worker's stream pipelines for one epoch.
func (c *Cluster) workerEpochAsync(ws *workerState, coord *sliceCoordinator, epoch, total int) error {
	h := c.hyperFor(epoch)
	slices := coord.slices
	chunks := ws.sliceChunks(coord)
	var wg sync.WaitGroup
	errs := make([]error, len(slices))
	for sj := range slices {
		wg.Add(1)
		go func(sj int) {
			defer wg.Done()
			errs[sj] = c.streamRun(ws, coord, slices[sj], chunks[sj], sj, h)
		}(sj)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The worker's P rows travel once, on the final push (Q-only) or every
	// epoch (naive mode), after all streams have quiesced.
	if !c.cfg.Strategy.QOnly || epoch == total-1 {
		if err := c.pushP(ws, epoch, total); err != nil {
			return err
		}
		c.foldP(ws, epoch, total)
	}
	return nil
}

// streamRun is one pull→compute→push pipeline over an item slice.
func (c *Cluster) streamRun(ws *workerState, coord *sliceCoordinator, sl itemSlice, chunk []sparse.Rating, sj int, h mf.HyperParams) error {
	k := c.cfg.K
	lo, hi := sl.lo*k, sl.hi*k
	enc := c.cfg.Strategy.Encoding
	tr := c.transportFor(ws)

	// Pull the Q slice. Safe concurrently: within an epoch a slice is
	// folded only after every worker (hence this one) has pushed it, and
	// every push follows the pull, so no fold can precede any pull of the
	// same slice.
	span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "pull", c.metrics.Phase[obs.Pull])
	st, err := tr.Pull(ws.local.Q[lo:hi], c.global.Q[lo:hi], comm.Xfer{
		Shard: comm.GlobalShard(comm.MatrixQ, lo, hi),
		Enc:   enc,
	})
	c.account(st)
	span.EndArg("slice", float64(sj))
	if err != nil {
		return fmt.Errorf("ps: async pull slice %d for %q: %v", sj, ws.conf.Name, err)
	}

	// Compute. Concurrent streams share ws.local.P — deliberately
	// unsynchronised (see the package comment above).
	span = c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "compute", c.metrics.Phase[obs.Compute])
	mf.TrainEntries(ws.local, chunk, h)
	span.EndArg("slice", float64(sj))
	c.metrics.Updates.Add(int64(len(chunk)))

	// Push the slice into the worker's push buffer.
	span = c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "push", c.metrics.Phase[obs.Push])
	st, err = tr.Push(ws.pushQ[lo:hi], ws.local.Q[lo:hi], comm.Xfer{
		Shard: comm.WorkerShard(comm.MatrixQ, ws.id, lo, hi),
		Enc:   enc,
	})
	c.account(st)
	span.EndArg("slice", float64(sj))
	if err != nil {
		return fmt.Errorf("ps: async push slice %d for %q: %v", sj, ws.conf.Name, err)
	}

	// Tell the server; it folds the slice once all workers delivered it.
	coord.arrive(ws, sj)
	return nil
}

// pushP uploads the worker's P rows (final Q-only push, or every naive-
// mode epoch).
func (c *Cluster) pushP(ws *workerState, epoch, total int) error {
	enc := c.cfg.Strategy.Encoding
	var src []float32
	var shard comm.Shard
	if c.cfg.Strategy.QOnly {
		lo, hi := ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
		src = ws.local.P[lo:hi]
		shard = comm.WorkerShard(comm.MatrixP, ws.id, lo, hi)
	} else {
		src = ws.local.P
		shard = comm.WorkerShard(comm.MatrixP, ws.id, 0, len(ws.local.P))
	}
	st, err := c.transportFor(ws).Push(ws.pushP, src, comm.Xfer{Shard: shard, Enc: enc})
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: push P for %q: %v", ws.conf.Name, err)
	}
	return nil
}

// foldP lands the worker's authoritative P rows in the global model.
// Row-grid ranges are disjoint, so concurrent workers never collide.
func (c *Cluster) foldP(ws *workerState, epoch, total int) {
	lo, hi := ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
	if c.cfg.Strategy.QOnly {
		copy(c.global.P[lo:hi], ws.pushP)
	} else {
		copy(c.global.P[lo:hi], ws.pushP[lo:hi])
	}
}

// itemSlice is one stream's contiguous item range [lo, hi).
type itemSlice struct{ lo, hi int }

// ratingSlices cuts the item axis (counts[i] = ratings of item i) into s
// contiguous, non-empty slices of about equal rating count, s clamped to
// [1, len(counts)]. Slice j closes at the first item where the running
// count reaches j+1 s-ths of the total, so every slice holds at most
// total/s plus the largest single item's count.
func ratingSlices(counts []int64, s int) []itemSlice {
	n := len(counts)
	s = max(1, min(s, n))
	var total int64
	for _, c := range counts {
		total += c
	}
	out := make([]itemSlice, s)
	item := 0
	var run int64 // ratings in items [0, item)
	for j := 0; j < s-1; j++ {
		target := total * int64(j+1) / int64(s)
		lo := item
		last := n - (s - 1 - j) // leave one item for each later slice
		for item < last && (item == lo || run < target) {
			run += counts[item]
			item++
		}
		out[j] = itemSlice{lo: lo, hi: item}
	}
	out[s-1] = itemSlice{lo: item, hi: n}
	return out
}

// sliceChunks lays the worker's shard out in place by (item slice, Q
// tile within the slice) — sparse.BlockOrder over the coordinator's tile
// table, (row, col) within a tile — so a stream's Q rows stay
// cache-resident while P streams past, and returns each slice's run of
// tiles as its stream's chunk. The result is cached: the slicing is stable
// across epochs, and eviction and rebalance reset the cache when the
// shard moves.
func (ws *workerState) sliceChunks(sc *sliceCoordinator) [][]sparse.Rating {
	if len(ws.chunks) == len(sc.slices) {
		return ws.chunks
	}
	entries := ws.conf.Shard.Entries
	off := sparse.BlockOrder(entries, sparse.Axis{N: 1}, sc.tiles)
	chunks := make([][]sparse.Rating, len(sc.slices))
	for j := range chunks {
		lo, hi := off[sc.firstTile[j]], off[sc.firstTile[j+1]]
		chunks[j] = entries[lo:hi:hi]
	}
	ws.chunks = chunks
	return chunks
}

// sliceCoordinator is the server's mid-epoch sync bookkeeping: it counts
// per-slice pushes and folds a slice conflict-aware once all workers
// delivered it. arrived remembers who pushed what, so evicting a worker
// can release exactly the slices it never delivered.
type sliceCoordinator struct {
	cluster *Cluster
	slices  []itemSlice
	// tiles maps each item to its Q tile (mf.TileAxis): slice j holds
	// tiles [firstTile[j], firstTile[j+1]).
	tiles     sparse.Axis
	firstTile []int
	mu        sync.Mutex
	pending   []int
	arrived   []map[*workerState]bool
}

// coordinator returns the epoch's slice coordinator, reusing the previous
// epoch's allocation (slices, counters, arrival maps) when the stream count
// is unchanged; only the bookkeeping is rewound each epoch. The slices are
// cut by rating count over the union of all workers' shards, once: they
// stay cluster-wide, so every worker pulls, pushes and folds the same
// ranges.
func (c *Cluster) coordinator(streams int) *sliceCoordinator {
	sc := c.coord
	if sc == nil || c.coordStreams != streams {
		counts := make([]int64, c.cfg.N)
		for _, ws := range c.workers {
			for _, e := range ws.conf.Shard.Entries {
				counts[e.I]++
			}
		}
		slices := ratingSlices(counts, streams)
		cuts := make([]int, len(slices)+1)
		for j, sl := range slices {
			cuts[j+1] = sl.hi
		}
		tiles, firstTile := mf.TileAxis(cuts, c.cfg.K)
		sc = &sliceCoordinator{
			cluster:   c,
			slices:    slices,
			tiles:     tiles,
			firstTile: firstTile,
			pending:   make([]int, len(slices)),
			arrived:   make([]map[*workerState]bool, len(slices)),
		}
		for i := range sc.arrived {
			sc.arrived[i] = make(map[*workerState]bool, len(c.workers))
		}
		c.coord, c.coordStreams = sc, streams
	}
	for i := range sc.pending {
		sc.pending[i] = len(c.workers)
		clear(sc.arrived[i])
	}
	return sc
}

// arrive records one worker's push of slice sj and triggers the fold when
// it was the last.
func (sc *sliceCoordinator) arrive(ws *workerState, sj int) {
	sc.mu.Lock()
	sc.arrived[sj][ws] = true
	sc.pending[sj]--
	ready := sc.pending[sj] == 0
	sc.mu.Unlock()
	if ready {
		sc.foldSlice(sj)
	}
}

// foldSlice folds one quiescent slice, recorded as a server sync span.
func (sc *sliceCoordinator) foldSlice(sj int) {
	c := sc.cluster
	span := c.observer.Span(obs.ProcReal, "server", "ps", "sync", c.metrics.Phase[obs.Sync])
	sl := sc.slices[sj]
	c.foldQRows(sl.lo, sl.hi)
	span.EndArg("slice", float64(sj))
}

// drop releases an evicted worker's outstanding arrivals: every slice it
// never pushed is decremented, and slices that were waiting only on it
// fold now, from the survivors' pushes. Called after the epoch's worker
// goroutines have quiesced and the worker has been removed from the
// cluster, so the fold no longer reads its push buffer.
func (sc *sliceCoordinator) drop(ws *workerState) {
	for sj := range sc.slices {
		sc.mu.Lock()
		release := sc.pending[sj] > 0 && !sc.arrived[sj][ws]
		if release {
			sc.arrived[sj][ws] = true
			sc.pending[sj]--
			release = sc.pending[sj] == 0
		}
		sc.mu.Unlock()
		if release {
			sc.foldSlice(sj)
		}
	}
}
