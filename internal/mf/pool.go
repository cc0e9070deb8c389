package mf

import (
	"runtime"
	"sync"

	"hccmf/internal/obs"
	"hccmf/internal/sparse"
)

// This file implements the persistent sweep-worker pool behind the FPSGD,
// Hogwild and Batched engines. The seed engines spawned fresh goroutine
// closures every epoch (and, for Batched, every simulated kernel launch),
// which put a closure + stack allocation on the steady-state training path.
// The pool spawns its workers once, hands them sweepTask values over a
// buffered channel (a by-value send: no allocation), and joins each epoch
// with a WaitGroup owned by the engine struct. After the first epoch the
// engines allocate nothing.
//
// Concurrency notes: the workers race on the shared *Factors exactly the
// way the seed closures did — Hogwild and Batched sweeps are intentionally
// lock-free (see raceflag), FPSGD tasks are made row/column-disjoint by the
// blockScheduler carried inside the task. Tests gate the racy engines on
// raceflag.Enabled, and the raceguard analyzer treats `go sweepWorker(...)`
// like a goroutine literal; this file is inside the raceflag quarantine on
// purpose.

// sweepTask is one unit of sweep work. Exactly one of sched/entries is set:
// a scheduler task loops acquiring disjoint blocks from the carried grid
// until the epoch is drained (FPSGD); an entries task sweeps the given
// contiguous run once (Hogwild chunk, Batched group). Both sweep through
// TrainEntries, the build's one sweep loop.
type sweepTask struct {
	f       *Factors
	h       HyperParams
	entries []sparse.Rating
	sched   *blockScheduler
	grid    *sparse.BlockGridded
	wg      *sync.WaitGroup
}

// sweepWorker drains tasks until the pool's channel is closed by the
// finalizer. It is a top-level function (not a closure) so starting it
// allocates only its goroutine, once, at pool construction.
//
// lint:hotpath
func sweepWorker(tasks <-chan sweepTask) {
	for t := range tasks {
		switch {
		case t.sched != nil:
			for {
				idx, ok := t.sched.acquire()
				if !ok {
					break
				}
				TrainEntries(t.f, t.grid.Blocks[idx].Entries, t.h)
				t.sched.release(idx)
			}
		default:
			TrainEntries(t.f, t.entries, t.h)
		}
		t.wg.Done()
	}
}

// sweepPool is a fixed-size set of sweep workers bound to one tasks channel.
type sweepPool struct {
	tasks chan sweepTask
}

func newSweepPool(workers int) *sweepPool {
	p := &sweepPool{tasks: make(chan sweepTask, workers)}
	for i := 0; i < workers; i++ {
		go sweepWorker(p.tasks)
	}
	// Workers hold only the channel, not the pool, so an abandoned pool is
	// collectable; closing the channel lets its workers exit.
	runtime.SetFinalizer(p, closeSweepPool)
	return p
}

func closeSweepPool(p *sweepPool) { close(p.tasks) }

// sweeper is the reusable engine state embedded in each parallel engine:
// the lazily built worker pool and the epoch-join WaitGroup. Engines embed
// it by value, which is why Hogwild and Batched moved to pointer receivers
// in this pass. An engine value must not run concurrent Epochs (true of
// every call site: one engine per worker, one epoch at a time).
type sweeper struct {
	pool *sweepPool
	size int
	wg   sync.WaitGroup
	// metrics is the optional observability bundle installed by SetMetrics
	// (see metered.go); nil keeps the epoch hooks inert.
	metrics *obs.EngineMetrics
}

// ensure returns the engine's pool, (re)building it when the requested
// worker count changes. Steady state — same worker count every epoch — is
// allocation-free.
func (s *sweeper) ensure(workers int) *sweepPool {
	if s.pool == nil || s.size != workers {
		s.pool = newSweepPool(workers)
		s.size = workers
	}
	return s.pool
}
