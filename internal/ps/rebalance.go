package ps

import (
	"fmt"

	"hccmf/internal/obs"
	"hccmf/internal/schedule"
	"hccmf/internal/sparse"
)

// Adaptive epoch-boundary rescheduling — closing the loop from observed
// throughput back into the data partition.
//
// The planner's DP0/DP1/DP2 split is computed once from calibrated rates;
// this file revisits it at every sync barrier. The cluster accumulates
// each worker's measured pull+compute+push seconds (the span durations
// the epoch pipeline already records for the obs histograms — no new
// measurement hot path), feeds them to schedule.Rebalancer, and when the
// predicted makespan gain clears the hysteresis threshold it re-shards
// the training data with sparse.RowShards and migrates the factor state,
// reusing the eviction path's salvage discipline (DESIGN.md §17).
//
// Determinism: the decision is a pure function of the measured seconds,
// and the re-shard is a pure function of the decision. Runs whose
// measurements are deterministic — a schedule.Config.Measure hook, or an
// observer on a virtual clock — therefore produce byte-identical models;
// the golden test pins this. Wall-clock-measured runs adapt to the real
// machine and are reproducible in distribution, not in bits.

// Rebalance records one adaptive re-shard.
type Rebalance struct {
	// Epoch is the 0-based epoch whose sync barrier triggered the
	// re-shard (the new split trains from the next epoch on).
	Epoch int
	// Shares is the achieved nnz share per worker, roster order.
	Shares []float64
	// Gain is the predicted relative makespan reduction that justified
	// the re-shard.
	Gain float64
	// Forced marks a post-eviction re-shard that bypassed hysteresis.
	Forced bool
}

// Rebalances reports the re-shards performed so far (empty on a static
// run).
func (c *Cluster) Rebalances() []Rebalance {
	return append([]Rebalance(nil), c.rebalances...)
}

// maybeRebalance runs the adaptive policy at one epoch's sync barrier.
// Every path through it resets the per-worker second accumulators, so
// each epoch is measured on its own.
func (c *Cluster) maybeRebalance(epoch, total int) error {
	if c.rebalancer == nil {
		return nil
	}
	loads := c.collectLoads()
	for _, ws := range c.workers {
		ws.epochSeconds = 0
	}
	// Concurrent streams overlap one worker's transfers and compute, so
	// the sum of their span seconds does not measure that worker's
	// throughput; only one-slice runs rebalance. The final epoch has no
	// successor to re-shard for.
	if c.cfg.Strategy.Streams > 1 || epoch == total-1 || len(c.workers) < 2 {
		return nil
	}
	d := c.rebalancer.Step(epoch, loads)
	c.metrics.SetScheduleGain(d.Gain)
	// Per-epoch assignment markers: one instant per worker carrying its
	// current share, so a trace shows the assignment trajectory.
	for i, ws := range c.workers {
		c.observer.Instant(obs.ProcReal, ws.conf.Name, "schedule", "assign", "share", loads[i].Share)
	}
	if !d.Rebalance {
		return nil
	}
	if err := c.reshard(d.Shares); err != nil {
		return fmt.Errorf("ps: rebalance at epoch %d: %v", epoch, err)
	}
	achieved := make([]float64, len(c.workers))
	for i, ws := range c.workers {
		achieved[i] = ws.conf.Weight
	}
	c.rebalances = append(c.rebalances, Rebalance{
		Epoch:  epoch,
		Shares: achieved,
		Gain:   d.Gain,
		Forced: d.Reason == "forced",
	})
	c.metrics.CountRebalance()
	c.observer.Instant(obs.ProcReal, "server", "schedule", "rebalance", "epoch", float64(epoch))
	return nil
}

// collectLoads snapshots the per-worker loads of the finished epoch.
func (c *Cluster) collectLoads() []schedule.WorkerLoad {
	if cap(c.loadScratch) < len(c.workers) {
		c.loadScratch = make([]schedule.WorkerLoad, len(c.workers))
	}
	loads := c.loadScratch[:len(c.workers)]
	var nnz int64
	for _, ws := range c.workers {
		nnz += int64(len(ws.conf.Shard.Entries))
	}
	for i, ws := range c.workers {
		share := ws.conf.Weight
		if nnz > 0 {
			// The achieved nnz share, not the target the last cut aimed
			// for: measured seconds correspond to the entries actually
			// trained.
			share = float64(len(ws.conf.Shard.Entries)) / float64(nnz)
		}
		loads[i] = schedule.WorkerLoad{
			Name:    ws.conf.Name,
			Share:   share,
			Updates: int64(len(ws.conf.Shard.Entries)),
			Seconds: ws.epochSeconds,
		}
	}
	return loads
}

// reshard re-cuts the row grid to the target shares and migrates factor
// state so training resumes as if the new assignment had been planned:
// authoritative P rows land in the global model first (the eviction
// path's salvage discipline — worker replicas are mapped into the
// server's address space, so this is a memory copy, not a transfer),
// then every worker receives its new contiguous row range, a fresh shard
// view, a replica seeded from the global model, and rebuilt push buffers.
func (c *Cluster) reshard(shares []float64) error {
	k := c.cfg.K
	if len(shares) != len(c.workers) {
		return fmt.Errorf("%d shares for %d workers", len(shares), len(c.workers))
	}
	// Workers are kept sorted ascending by RowLo (construction cuts the
	// grid in order; eviction hulls preserve disjoint interval order), so
	// concatenating shards in roster order yields the full training set.
	// A block engine may have laid a shard out in block order, so a row's
	// entries need not be contiguous there; RowShards regroups them with a
	// stable scatter by row, each row keeping its shard's order.
	total := 0
	for i, ws := range c.workers {
		if i > 0 && ws.conf.RowLo < c.workers[i-1].conf.RowHi {
			return fmt.Errorf("worker roster out of row order")
		}
		total += len(ws.conf.Shard.Entries)
	}
	if total == 0 {
		return nil
	}
	entries := make([]sparse.Rating, 0, total)
	for _, ws := range c.workers {
		entries = append(entries, ws.conf.Shard.Entries...)
	}
	full := &sparse.COO{Rows: c.cfg.M, Cols: c.cfg.N, Entries: entries}
	slices, shards, err := sparse.RowShards(full, shares)
	if err != nil {
		return err
	}

	// Under Q-only the worker replicas hold the authoritative P rows
	// (they are pushed only on the final epoch); land them server-side
	// before rows change owners. Under full-P sync the global matrix is
	// already authoritative at the barrier.
	if c.cfg.Strategy.QOnly {
		for _, ws := range c.workers {
			lo, hi := ws.conf.RowLo*k, ws.conf.RowHi*k
			copy(c.global.P[lo:hi], ws.local.P[lo:hi])
		}
	}
	for i, ws := range c.workers {
		sl := slices[i]
		ws.conf.Shard = shards[i]
		ws.conf.RowLo, ws.conf.RowHi = sl.Lo, sl.Hi
		ws.conf.Weight = float64(len(shards[i].Entries)) / float64(total)
		// Seed the replica's new range from the authoritative model —
		// preprocessing step ③ replayed for the new owner.
		lo, hi := sl.Lo*k, sl.Hi*k
		copy(ws.local.P[lo:hi], c.global.P[lo:hi])
		// Rebuild the P push buffer for the new range, pre-filled so a
		// sync landing before the next push stays row-aligned.
		if c.cfg.Strategy.QOnly {
			ws.pushP = make([]float32, (sl.Hi-sl.Lo)*k)
			copy(ws.pushP, ws.local.P[lo:hi])
		} else {
			copy(ws.pushP[lo:hi], ws.local.P[lo:hi])
		}
		// The stream chunk cache buckets the old shard; rebuild lazily.
		ws.chunks = nil
	}
	return nil
}
