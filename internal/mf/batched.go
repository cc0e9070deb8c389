package mf

import (
	"fmt"

	"hccmf/internal/sparse"
)

// Batched mirrors the execution shape of cuMF_SGD (the paper's reference
// [27]): the entry stream is processed in large batches — one batch per
// simulated kernel launch — and within a batch a fixed pool of "thread
// group" goroutines (warps) sweep disjoint contiguous runs Hogwild-style.
// The batch boundary is a barrier, matching the GPU's kernel-launch
// synchronisation; within a batch there is no locking, matching cuMF_SGD's
// lock-free warp design. Like Hogwild, the intra-batch races are
// intentional: tests consult raceflag.Enabled to stay off these paths
// under -race, and the raceguard analyzer keeps the quarantine tight.
type Batched struct {
	// Groups is the number of concurrent thread groups (≥1). On the real
	// GPU this is blocks×warps; here each group is a pool worker.
	Groups int
	// BatchSize is the number of ratings consumed per simulated kernel
	// launch; 0 selects the whole epoch as one batch.
	BatchSize int

	sweeper
}

// Name implements Engine.
func (bt *Batched) Name() string { return fmt.Sprintf("batched-%d", bt.Groups) }

// Epoch implements Engine.
//
// lint:hotpath
func (bt *Batched) Epoch(f *Factors, train *sparse.COO, h HyperParams) {
	start := bt.metrics.EpochStart()
	bt.epoch(f, train, h)
	bt.metrics.EpochDone(start, int64(len(train.Entries)))
}

// lint:hotpath
func (bt *Batched) epoch(f *Factors, train *sparse.COO, h HyperParams) {
	groups := bt.Groups
	if groups < 1 {
		groups = 1
	}
	n := len(train.Entries)
	batch := bt.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		bt.launch(f, train.Entries[lo:hi], h, groups)
	}
}

// launch is one simulated kernel launch over a batch. The group sweeps run
// on the engine's persistent worker pool; the wg.Wait is the kernel-launch
// barrier.
//
// lint:hotpath
func (bt *Batched) launch(f *Factors, entries []sparse.Rating, h HyperParams, groups int) {
	n := len(entries)
	if groups == 1 || n < 4*groups {
		TrainEntries(f, entries, h)
		return
	}
	chunk := (n + groups - 1) / groups
	pool := bt.ensure(groups)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bt.wg.Add(1)
		pool.tasks <- sweepTask{f: f, h: h, entries: entries[lo:hi], wg: &bt.wg}
	}
	bt.wg.Wait()
}
