package mf

import (
	"fmt"

	"hccmf/internal/sparse"
)

// Hogwild is the lock-free asynchronous SGD engine of Niu et al. (the
// paper's reference [21]): Threads goroutines update the shared factors
// with no synchronisation at all. On sparse data conflicting updates are
// rare enough that convergence survives; HCC-MF relies on the same argument
// for its intra-worker asynchrony. The races here are the algorithm, not a
// bug: tests gate these paths on raceflag.Enabled and fall back to the
// serial variant under -race, and raceguard (hccmf-vet) keeps every other
// concurrent write path in this package out of this quarantine.
type Hogwild struct {
	// Threads is the number of concurrent updaters (≥1).
	Threads int

	sweeper
}

// Name implements Engine.
func (hw *Hogwild) Name() string { return fmt.Sprintf("hogwild-%d", hw.Threads) }

// Epoch implements Engine. Each pool worker sweeps a contiguous chunk of
// the (pre-shuffled) entry stream; races on hot rows are tolerated by
// design. The chunk sweeps run on the engine's persistent worker pool, so
// steady-state epochs allocate nothing.
//
// lint:hotpath
func (hw *Hogwild) Epoch(f *Factors, train *sparse.COO, h HyperParams) {
	start := hw.metrics.EpochStart()
	hw.epoch(f, train, h)
	hw.metrics.EpochDone(start, int64(len(train.Entries)))
}

// lint:hotpath
func (hw *Hogwild) epoch(f *Factors, train *sparse.COO, h HyperParams) {
	threads := hw.Threads
	if threads < 1 {
		threads = 1
	}
	n := len(train.Entries)
	if threads == 1 || n < 4*threads {
		TrainEntries(f, train.Entries, h)
		return
	}
	chunk := (n + threads - 1) / threads
	pool := hw.ensure(threads)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		hw.wg.Add(1)
		pool.tasks <- sweepTask{f: f, h: h, entries: train.Entries[lo:hi], wg: &hw.wg}
	}
	hw.wg.Wait()
}
