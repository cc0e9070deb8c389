package ps

import (
	"cmp"
	"fmt"
	"sync"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/sparse"
)

// The epoch pipeline (paper Sections 3.1 and 3.4, Figure 6). Every epoch,
// each worker pulls the global P once if the strategy is naive, then runs
// one pull → compute → push stream per item slice of Q, then pushes its P
// band if the strategy calls for it. A stream pulls only its slice, trains
// the shard entries whose items fall inside it and pushes the slice back,
// so the per-epoch feature traffic stays one Q per worker whatever the
// slice count. The server folds a Q slice as soon as every worker has
// pushed it (sliceCoordinator) and does the rest once the epoch's workers
// have all returned (runEpoch).
//
// Strategy.Streams == 1 is one slice over [0, N), run inline on the
// worker's goroutine: the bulk-synchronous epoch, whose compute is the
// worker's engine over its shard. Strategy 3's asynchronous
// computing-transmission is Streams > 1: the slices run on goroutines, so
// one stream's transfers overlap the others' compute, and each stream
// trains its chunk with mf.TrainEntries.
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
// Two consequences the paper calls out are reproduced faithfully when
// there is more than one slice:
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

// trainFunc trains worker ws's ratings in item slice sj and returns how
// many it applied.
type trainFunc func(ws *workerState, sj int, h mf.HyperParams) int

// trainShard is the one-slice compute: the worker's engine over its shard.
func trainShard(ws *workerState, _ int, h mf.HyperParams) int {
	ws.conf.Engine.Epoch(ws.local, ws.conf.Shard, h)
	return len(ws.conf.Shard.Entries)
}

// trainChunk is a stream's compute over its tile-major chunk. Concurrent
// streams share ws.local.P — deliberately unsynchronised (see above).
func (c *Cluster) trainChunk(ws *workerState, sj int, h mf.HyperParams) int {
	chunk := ws.sliceChunks(c.coord)[sj]
	mf.TrainEntries(ws.local, chunk, h)
	return len(chunk)
}

// workerEpoch runs one worker's epoch. With one slice the P transfers ride
// in the stream's own pull and push spans, so a bulk-synchronous epoch
// records one span per worker and phase; with more they get spans of
// their own around the streams. Each stream returns its span seconds and
// they are added to ws.epochSeconds here, on the worker's goroutine.
func (c *Cluster) workerEpoch(ws *workerState, coord *sliceCoordinator, epoch, total int, train trainFunc) error {
	h := c.hyperFor(epoch)
	pullP := !c.cfg.Strategy.QOnly
	pushP := pullP || epoch == total-1
	n := len(coord.slices)
	if n == 1 {
		secs, err := c.stream(ws, 0, h, train, pullP, pushP)
		ws.epochSeconds += secs
		return err
	}
	if pullP {
		if err := c.timedP(ws, false); err != nil {
			return err
		}
	}
	// Lay the chunks out before the streams read them.
	ws.sliceChunks(coord)
	secs := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for sj := range n {
		wg.Add(1)
		go func(sj int) {
			defer wg.Done()
			secs[sj], errs[sj] = c.stream(ws, sj, h, train, false, false)
		}(sj)
	}
	wg.Wait()
	var err error
	for sj := range n {
		ws.epochSeconds += secs[sj]
		err = cmp.Or(err, errs[sj])
	}
	if err != nil {
		return err
	}
	if pushP {
		return c.timedP(ws, true)
	}
	return nil
}

// stream is one pull → compute → push pipeline over item slice sj, which
// then tells the server the slice is pushed. pullP and pushP add the P
// transfers to its pull and push spans. It returns its span seconds.
//
// The Q pull is safe concurrently: within an epoch a slice is folded only
// after every worker (hence this one) has pushed it, and every push
// follows the pull, so no fold can precede any pull of the same slice.
func (c *Cluster) stream(ws *workerState, sj int, h mf.HyperParams, train trainFunc, pullP, pushP bool) (float64, error) {
	sl := c.coord.slices[sj]
	lo, hi := sl.lo*c.cfg.K, sl.hi*c.cfg.K
	enc := c.cfg.Strategy.Encoding
	tr := c.transportFor(ws)

	span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "pull", c.metrics.Phase[obs.Pull])
	var err error
	if pullP {
		err = c.moveP(ws, false)
	}
	if err == nil {
		st, qerr := tr.Pull(ws.local.Q[lo:hi], c.global.Q[lo:hi], comm.Xfer{
			Shard: comm.GlobalShard(comm.MatrixQ, lo, hi),
			Enc:   enc,
		})
		c.account(st)
		if qerr != nil {
			err = fmt.Errorf("ps: pull Q slice %d for %q: %v", sj, ws.conf.Name, qerr)
		}
	}
	secs := span.EndArg("slice", float64(sj))
	if err != nil {
		return secs, err
	}

	span = c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "compute", c.metrics.Phase[obs.Compute])
	updates := train(ws, sj, h)
	secs += span.EndArg("slice", float64(sj))
	c.metrics.Updates.Add(int64(updates))

	span = c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "push", c.metrics.Phase[obs.Push])
	st, err := tr.Push(ws.pushQ[lo:hi], ws.local.Q[lo:hi], comm.Xfer{
		Shard: comm.WorkerShard(comm.MatrixQ, ws.id, lo, hi),
		Enc:   enc,
	})
	c.account(st)
	if err != nil {
		err = fmt.Errorf("ps: push Q slice %d for %q: %v", sj, ws.conf.Name, err)
	} else if pushP {
		err = c.moveP(ws, true)
	}
	secs += span.EndArg("slice", float64(sj))
	if err != nil {
		return secs, err
	}
	c.coord.arrive(ws, sj)
	return secs, nil
}

// timedP runs one P transfer (see moveP) in a pull or push span of its own.
func (c *Cluster) timedP(ws *workerState, push bool) error {
	name, phase := "pull", obs.Pull
	if push {
		name, phase = "push", obs.Push
	}
	span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", name, c.metrics.Phase[phase])
	err := c.moveP(ws, push)
	ws.epochSeconds += span.End()
	return err
}

// moveP pulls the complete global P into the worker's replica (naive
// strategy), or pushes the worker's P into its push buffer: the complete
// P under the naive strategy, its own rows on Q-only's final push.
// Transfer stats are accounted even when the transfer fails: a retried or
// truncated attempt consumed real bus time.
func (c *Cluster) moveP(ws *workerState, push bool) error {
	tr := c.transportFor(ws)
	x := comm.Xfer{Shard: comm.GlobalShard(comm.MatrixP, 0, len(c.global.P)), Enc: c.cfg.Strategy.Encoding}
	op := "pull"
	var st comm.TransferStats
	var err error
	if push {
		op = "push"
		lo, hi := 0, len(ws.local.P)
		if c.cfg.Strategy.QOnly {
			lo, hi = ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
		}
		x.Shard = comm.WorkerShard(comm.MatrixP, ws.id, lo, hi)
		st, err = tr.Push(ws.pushP, ws.local.P[lo:hi], x)
	} else {
		st, err = tr.Pull(ws.local.P, c.global.P, x)
	}
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: %s P for %q: %v", op, ws.conf.Name, err)
	}
	return nil
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
// ranges. One stream is one slice over [0, N), whatever the counts.
func (c *Cluster) coordinator(streams int) *sliceCoordinator {
	sc := c.coord
	if sc == nil || c.coordStreams != streams {
		counts := make([]int64, c.cfg.N)
		if streams > 1 {
			for _, ws := range c.workers {
				for _, e := range ws.conf.Shard.Entries {
					counts[e.I]++
				}
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
