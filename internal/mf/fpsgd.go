package mf

import (
	"fmt"
	"sync"

	"hccmf/internal/sparse"
)

// FPSGD is the cache-friendly block-scheduled SGD engine of Chin et al.
// (the paper's reference [2], "fast parallel SGD"). The rating matrix is
// tiled into a (Threads+1)×(Threads+1) block grid; a scheduler hands each
// worker thread a *free* block — one sharing no block-row or block-column
// with any in-flight block — so threads never touch the same P or Q rows
// and no per-update locking is needed. Within an epoch every block is
// processed exactly once.
type FPSGD struct {
	// Threads is the number of worker threads (≥1).
	Threads int

	mu    sync.Mutex
	grid  *sparse.BlockGridded
	src   *sparse.COO // grid cache key
	nside int
	sched *blockScheduler // reused across epochs, reset() each time
	sweeper
}

// Name implements Engine.
func (fp *FPSGD) Name() string {
	return fmt.Sprintf("fpsgd-%d", fp.Threads)
}

// Epoch implements Engine.
//
// lint:hotpath
func (fp *FPSGD) Epoch(f *Factors, train *sparse.COO, h HyperParams) {
	start := fp.metrics.EpochStart()
	fp.epoch(f, train, h)
	fp.metrics.EpochDone(start, int64(len(train.Entries)))
}

// lint:hotpath
func (fp *FPSGD) epoch(f *Factors, train *sparse.COO, h HyperParams) {
	threads := fp.Threads
	if threads < 1 {
		threads = 1
	}
	nside := threads + 1
	if nside > train.Rows {
		nside = train.Rows
	}
	if nside > train.Cols {
		nside = train.Cols
	}
	if nside < 1 {
		nside = 1
	}
	// One thread or a degenerate grid sweeps the shard as it is, so the
	// grid (and its per-block row sort) is only built when it will be read.
	var grid *sparse.BlockGridded
	if threads > 1 && nside >= 2 {
		grid = fp.cachedGrid(train, nside)
	}
	if grid == nil {
		TrainEntries(f, train.Entries, h)
		return
	}

	sched := fp.scheduler(grid)
	pool := fp.ensure(threads)
	fp.wg.Add(threads)
	for w := 0; w < threads; w++ {
		// Concurrent kernel sweeps never share a factor row: the
		// blockScheduler carried in the task hands out row- and
		// column-disjoint blocks; joined by fp.wg.Wait.
		pool.tasks <- sweepTask{f: f, h: h, sched: sched, grid: grid, wg: &fp.wg}
	}
	fp.wg.Wait()
}

// scheduler returns the epoch block scheduler, reusing the previous epoch's
// allocation when the grid shape is unchanged.
func (fp *FPSGD) scheduler(grid *sparse.BlockGridded) *blockScheduler {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.sched != nil && fp.sched.nbr == grid.NBR && fp.sched.nbc == grid.NBC {
		fp.sched.reset()
		return fp.sched
	}
	fp.sched = newBlockScheduler(grid.NBR, grid.NBC)
	return fp.sched
}

// cachedGrid reuses the block grid across epochs as long as the engine
// trains the same matrix with the same grid side. Grid construction (and
// the per-block row sort) is a per-matrix setup cost, not a per-epoch one.
func (fp *FPSGD) cachedGrid(train *sparse.COO, nside int) *sparse.BlockGridded {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.grid != nil && fp.src == train && fp.nside == nside {
		return fp.grid
	}
	g, err := sparse.NewBlockGrid(train, nside, nside)
	if err != nil {
		return nil
	}
	// Sort blocks by row for cache locality, as the paper's modified
	// baseline does ("block sorting by row").
	for i := range g.Blocks {
		sortEntriesByRow(g.Blocks[i].Entries)
	}
	fp.grid, fp.src, fp.nside = g, train, nside
	return g
}

func sortEntriesByRow(entries []sparse.Rating) {
	// Insertion-friendly small slices dominate; stdlib sort is fine here
	// because grids are rebuilt once per matrix, not per epoch.
	if len(entries) < 2 {
		return
	}
	quickSortByRow(entries)
}

func quickSortByRow(e []sparse.Rating) {
	for len(e) > 12 {
		p := partitionByRow(e)
		if p < len(e)-p {
			quickSortByRow(e[:p])
			e = e[p:]
		} else {
			quickSortByRow(e[p:])
			e = e[:p]
		}
	}
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && lessByRow(e[j], e[j-1]); j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

func partitionByRow(e []sparse.Rating) int {
	pivot := e[len(e)/2]
	i, j := 0, len(e)-1
	for {
		for lessByRow(e[i], pivot) {
			i++
		}
		for lessByRow(pivot, e[j]) {
			j--
		}
		if i >= j {
			return j + 1
		}
		e[i], e[j] = e[j], e[i]
		i++
		j--
	}
}

func lessByRow(a, b sparse.Rating) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.I < b.I
}

// blockScheduler hands out grid blocks so that no two in-flight blocks
// share a block-row or block-column, and every block runs exactly once per
// epoch. acquire blocks until a free block exists or the epoch is done.
type blockScheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	nbr     int
	nbc     int
	done    []bool
	rowBusy []bool
	colBusy []bool
	left    int
}

func newBlockScheduler(nbr, nbc int) *blockScheduler {
	s := &blockScheduler{
		nbr: nbr, nbc: nbc,
		done:    make([]bool, nbr*nbc),
		rowBusy: make([]bool, nbr),
		colBusy: make([]bool, nbc),
		left:    nbr * nbc,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire returns the index of a free, not-yet-done block, or ok=false when
// the epoch has completed.
func (s *blockScheduler) acquire() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.left == 0 {
			return 0, false
		}
		for br := 0; br < s.nbr; br++ {
			if s.rowBusy[br] {
				continue
			}
			for bc := 0; bc < s.nbc; bc++ {
				if s.colBusy[bc] {
					continue
				}
				idx := br*s.nbc + bc
				if s.done[idx] {
					continue
				}
				s.done[idx] = true
				s.rowBusy[br] = true
				s.colBusy[bc] = true
				s.left--
				return idx, true
			}
		}
		// All remaining blocks conflict with in-flight ones; wait for a
		// release.
		s.cond.Wait()
	}
}

// reset rewinds the scheduler for another epoch over the same grid shape,
// reusing its slices.
func (s *blockScheduler) reset() {
	s.mu.Lock()
	for i := range s.done {
		s.done[i] = false
	}
	for i := range s.rowBusy {
		s.rowBusy[i] = false
	}
	for i := range s.colBusy {
		s.colBusy[i] = false
	}
	s.left = len(s.done)
	s.mu.Unlock()
}

// release frees the row/column of a completed block.
func (s *blockScheduler) release(idx int) {
	s.mu.Lock()
	s.rowBusy[idx/s.nbc] = false
	s.colBusy[idx%s.nbc] = false
	s.mu.Unlock()
	s.cond.Broadcast()
}
