package mf

import (
	"fmt"
	"slices"

	"hccmf/internal/sparse"
)

// FPSGD is the cache-friendly block-partitioned SGD engine of Chin et al.
// (the paper's reference [2], "fast parallel SGD"). The shard is laid out
// on a G×G block grid (gridSide) and every epoch is the deterministic
// BlockWalk over it: Threads pool threads share each stratum's row- and
// column-disjoint blocks, so they never touch the same P or Q rows and no
// per-update locking is needed. Within an epoch every block is processed
// exactly once, and the factors come out bit-identical at any Threads.
// The first epoch over a shard lays its entries out in place.
type FPSGD struct {
	// Threads is the number of worker threads (≥1).
	Threads int

	BlockWalk
}

// Name implements Engine.
func (fp *FPSGD) Name() string {
	return fmt.Sprintf("fpsgd-%d", fp.Threads)
}

// Epoch implements Engine.
//
// lint:hotpath
func (fp *FPSGD) Epoch(f *Factors, train *sparse.COO, h HyperParams) {
	fp.Walk(f, train, h, gridSide(train.Cols, f.K), fp.Threads)
}

// tileBytesDefault is a conservative per-core slice of L2 (typical
// client/server cores have 0.5–2 MiB per core); a Q tile or block must
// share the cache with the streaming P rows and the entry stream itself.
const tileBytesDefault = 256 << 10

// gridSideFloor is the smallest grid side gridSide picks. A stratum holds
// G blocks, so a floor of 16 gives each of up to 16 threads a block of
// every stratum even when Q is small enough to fit one block.
const gridSideFloor = 16

// tileCols reports how many consecutive columns fit one Q tile of the
// given byte budget at factor dimension k (4 bytes per float32), never
// less than one column.
func tileCols(k, budget int) int {
	if k <= 0 {
		return 1
	}
	return max(1, budget/(4*k))
}

// TileCols is tileCols at the default budget: the width of the Q tiles
// the parameter server's async streams walk their item slices in.
func TileCols(k int) int { return tileCols(k, tileBytesDefault) }

// TileAxis numbers the Q tiles of consecutive item slices: slice j holds
// items [cuts[j], cuts[j+1]) and is cut, from its first item, into tiles
// TileCols(k) wide, numbered across slices so that slice j holds tiles
// [first[j], first[j+1]). The parameter server's async streams lay a
// shard out over it with sparse.BlockOrder, one run of tiles per stream.
func TileAxis(cuts []int, k int) (tiles sparse.Axis, first []int) {
	tc, s := TileCols(k), len(cuts)-1
	of := make([]int32, cuts[s])
	first = make([]int, s+1)
	for j := 0; j < s; j++ {
		for i := cuts[j]; i < cuts[j+1]; i++ {
			of[i] = int32(first[j] + (i-cuts[j])/tc)
		}
		first[j+1] = first[j] + (cuts[j+1]-cuts[j]+tc-1)/tc
	}
	return sparse.Axis{Of: of, N: first[s]}, first
}

// gridSide is the block-grid side G of the FPSGD and Batched walks over a
// shard of cols columns at factor dimension k: the smallest side whose Q
// block (cols/G columns) fits tileBytesDefault, but at least
// gridSideFloor. BlockWalk clamps it to the rows the shard's ratings
// occupy and to its columns. G depends on the shard's shape and k only —
// never on Threads, GOMAXPROCS or a detected cache size, each of which
// would make the bits depend on the host.
func gridSide(cols, k int) int {
	tc := TileCols(k)
	return max(gridSideFloor, (cols+tc-1)/tc)
}

// BlockWalk is the one deterministic block schedule of the FPSGD, Batched
// and DSGD engines. It lays the shard out on a G×G block grid
// (sparse.NewBlockGrid, in place, once per shard) whose block rows cut the
// band of rows the shard's ratings occupy, and runs an epoch as G DSGD
// strata: stratum s is the blocks (b, (b+s) mod G), b = 0..G-1. The
// blocks of one stratum share no block-row and no block-column, so they
// touch disjoint rows of P and of Q: any pool thread may take any of
// them, any two may be swept together (trainPair), and the result does
// not depend on which thread ran which block or on how they were paired.
// At one thread each stratum's non-empty blocks are dealt into two lanes
// of about equal entry count (deal) and the two lanes are swept together,
// inline; with a pool each block is a task of its own. The engine's wg
// barrier separates strata. An epoch's bits depend only on the shard's
// entries and G, never on the thread count or on timing.
//
// The zero value is ready to use. A BlockWalk must not run concurrent
// epochs (true of every engine that embeds one).
type BlockWalk struct {
	sweeper
	// grid is the layout of the entries laid, asked for at side; nil
	// when side clamps below 2 and the walk sweeps them in their own
	// order.
	grid *sparse.BlockGridded
	laid []sparse.Rating
	side int
	// blocks and lanes are the scratch deal sorts and splits one
	// stratum's blocks in, reused every stratum so an epoch allocates
	// nothing.
	blocks [][]sparse.Rating
	lanes  [2][][]sparse.Rating
}

// Walk runs one epoch over train on a side×side block grid with threads
// pool threads (≤1 runs inline). side is clamped to the rows train's
// ratings occupy and to its columns; a side of 1 sweeps train in its own
// order. The first walk over train.Entries at a side reorders them into
// the grid's block order.
//
// lint:hotpath
func (w *BlockWalk) Walk(f *Factors, train *sparse.COO, h HyperParams, side, threads int) {
	g := w.layout(train, side)
	if g == nil {
		TrainEntries(f, train.Entries, h)
		return
	}
	side = g.NBR
	if threads <= 1 {
		for s := 0; s < side; s++ {
			a, b := w.deal(g, s)
			sweepLanes(f, a, b, h)
		}
		return
	}
	pool := w.ensure(threads)
	for s := 0; s < side; s++ {
		for b := 0; b < side; b++ {
			blk := g.Block(b, (b+s)%side)
			if len(blk) == 0 {
				continue
			}
			// Concurrent kernel sweeps never share a factor row: the
			// blocks of one stratum are row- and column-disjoint; the
			// stratum is joined by w.wg.Wait.
			w.wg.Add(1)
			pool.tasks <- sweepTask{f: f, h: h, entries: blk, wg: &w.wg}
		}
		w.wg.Wait()
	}
}

// deal splits stratum s's non-empty blocks into two lanes by a greedy
// pass, largest block first (ties in block-row order): each block joins
// the lane with fewer entries so far, the first on a tie. Any split gives
// the same bits, since the blocks are disjoint; this one keeps the lanes
// about equal so they run out together. On skewed shards a stratum's
// largest block can outweigh the rest, and then what it holds past the
// other lane's total is swept alone whatever the split.
func (w *BlockWalk) deal(g *sparse.BlockGridded, s int) (a, b [][]sparse.Rating) {
	blocks := w.blocks[:0]
	for r := 0; r < g.NBR; r++ {
		if blk := g.Block(r, (r+s)%g.NBR); len(blk) > 0 {
			blocks = append(blocks, blk)
		}
	}
	slices.SortStableFunc(blocks, func(x, y []sparse.Rating) int { return len(y) - len(x) })
	a, b = w.lanes[0][:0], w.lanes[1][:0]
	na, nb := 0, 0
	for _, blk := range blocks {
		if na <= nb {
			a, na = append(a, blk), na+len(blk)
		} else {
			b, nb = append(b, blk), nb+len(blk)
		}
	}
	w.blocks, w.lanes[0], w.lanes[1] = blocks, a, b
	return a, b
}

// sweepLanes sweeps two lanes of one stratum's blocks together: the head
// of each lane goes through trainPair with an equally long head of the
// other, a lane moving to its next block when its current one is used
// up; once one lane is empty the rest of the other is swept alone.
//
// lint:hotpath
func sweepLanes(f *Factors, a, b [][]sparse.Rating, h HyperParams) {
	var ra, rb []sparse.Rating
	for {
		for len(ra) == 0 && len(a) > 0 {
			ra, a = a[0], a[1:]
		}
		for len(rb) == 0 && len(b) > 0 {
			rb, b = b[0], b[1:]
		}
		n := min(len(ra), len(rb))
		if n == 0 {
			break
		}
		trainPair(f, ra[:n], rb[:n], h)
		ra, rb = ra[n:], rb[n:]
	}
	trainPair(f, ra, rb, h)
	for _, blk := range a {
		TrainEntries(f, blk, h)
	}
	for _, blk := range b {
		TrainEntries(f, blk, h)
	}
}

// layout returns train's block grid at side, laying the entries out in
// place the first time this walk sees them at this side, or nil when the
// clamped side is below 2. The cache key is the entries slice itself, so
// a shard that was swapped, grown or reallocated is laid out again.
func (w *BlockWalk) layout(train *sparse.COO, side int) *sparse.BlockGridded {
	e := train.Entries
	if w.laid != nil && w.side == side && len(w.laid) == len(e) &&
		(len(e) == 0 || &w.laid[0] == &e[0]) {
		return w.grid
	}
	w.laid, w.side, w.grid = e, side, nil
	if len(e) == 0 {
		return nil
	}
	lo, hi := int(e[0].U), int(e[0].U)
	for _, r := range e[1:] {
		lo, hi = min(lo, int(r.U)), max(hi, int(r.U))
	}
	hi++
	if side = min(side, hi-lo, train.Cols); side < 2 {
		return nil
	}
	g, err := sparse.NewBlockGrid(train, lo, hi, side, side)
	if err != nil {
		// lint:invariant layout clamps side to [2, min(rows occupied, Cols)] over the occupied band, a grid NewBlockGrid always accepts.
		panic(err)
	}
	w.grid = g
	return g
}
