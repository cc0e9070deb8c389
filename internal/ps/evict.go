package ps

import (
	"fmt"

	"hccmf/internal/obs"
	"hccmf/internal/sparse"
)

// Worker eviction — graceful degradation when a worker's link dies.
//
// The paper's protocol assumes a failure-free platform: one failed transfer
// aborted the whole run. With retrying transports a transient fault heals
// in place; eviction handles the remaining case, a worker whose transfers
// still fail after the retry budget. The cluster removes it and a surviving
// worker inherits its row range and shard, so the epoch — and the run —
// completes with the survivors.
//
// Recovery of the dead worker's P rows leans on the COMM module's defining
// property: worker buffers are mapped into the server's address space, so
// the worker's local replica outlives the worker's ability to communicate.
// The server salvages those rows directly (a memory copy, not a transfer —
// nothing is bus-charged), lands them in the global model, and seeds the
// heir's replica with them, mirroring preprocessing step ③. The dying
// worker's current-epoch compute may be partially lost, and its shard goes
// untrained for the rest of the epoch it dies in; that is the same "small
// part of the training results is lost" trade the async streams already
// accept.

// Eviction records one worker's removal from the cluster.
type Eviction struct {
	// Worker names the evicted worker.
	Worker string
	// Epoch is the 0-based epoch the eviction happened in.
	Epoch int
	// RowLo, RowHi is the row range the worker owned.
	RowLo, RowHi int
	// InheritedBy names the survivor that absorbed the range and shard.
	InheritedBy string
	// Err is the transfer error that exhausted the retry budget.
	Err error
}

// Evictions reports the workers evicted so far (empty on a healthy run).
func (c *Cluster) Evictions() []Eviction {
	return append([]Eviction(nil), c.evictions...)
}

// settle inspects one epoch's per-worker errors at the epoch boundary.
// With EvictOnFailure off the first failure aborts the run, exactly the
// pre-fault-tolerance behaviour. With it on, every failed worker is
// evicted and the run continues with the survivors, the heirs training
// the absorbed shards from the next epoch; the evicted states are returned
// so the slice coordinator can release their pending slices.
func (c *Cluster) settle(epoch int, workers []*workerState, errs []error) ([]*workerState, error) {
	var failed []*workerState
	cause := make(map[*workerState]error)
	for i, err := range errs {
		if err != nil {
			failed = append(failed, workers[i])
			cause[workers[i]] = err
		}
	}
	if len(failed) == 0 {
		return nil, nil
	}
	if !c.cfg.EvictOnFailure {
		return nil, cause[failed[0]]
	}
	// Drop all casualties first so heirs are chosen among true survivors.
	survivors := c.workers[:0:0]
	for _, ws := range c.workers {
		if cause[ws] == nil {
			survivors = append(survivors, ws)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("ps: all workers failed in epoch %d: %v", epoch, cause[failed[0]])
	}
	c.workers = survivors
	for _, ws := range failed {
		if err := c.evict(epoch, ws, cause[ws]); err != nil {
			return nil, err
		}
	}
	return failed, nil
}

// evict reassigns ws's rows and shard to an heir and records the eviction.
func (c *Cluster) evict(epoch int, ws *workerState, cause error) error {
	heir := c.chooseHeir(ws)
	if heir == nil {
		return fmt.Errorf("ps: worker %q failed (%v) and no survivor can absorb rows [%d,%d)",
			ws.conf.Name, cause, ws.conf.RowLo, ws.conf.RowHi)
	}
	c.inherit(ws, heir)
	// Re-normalise blend weights over the survivors.
	var wsum float64
	for _, s := range c.workers {
		wsum += s.conf.Weight
	}
	for _, s := range c.workers {
		s.conf.Weight /= wsum
	}
	c.evictions = append(c.evictions, Eviction{
		Worker: ws.conf.Name,
		Epoch:  epoch,
		RowLo:  ws.conf.RowLo, RowHi: ws.conf.RowHi,
		InheritedBy: heir.conf.Name,
		Err:         cause,
	})
	c.metrics.CountEviction()
	c.observer.Instant(obs.ProcReal, ws.conf.Name, "ps", "evict", "epoch", float64(epoch))
	// The heir's hull is imbalanced by construction: let the adaptive
	// scheduler re-shard at the next barrier without waiting out its
	// hysteresis or cooldown (no-op on a static run).
	c.rebalancer.Force()
	return nil
}

// chooseHeir picks the survivor to absorb dead's rows: row ranges stay
// contiguous intervals, so the heir's widened range (the hull of both) must
// not overlap any other survivor. Among the eligible, the one with the
// lightest shard takes the load.
func (c *Cluster) chooseHeir(dead *workerState) *workerState {
	var best *workerState
	for _, cand := range c.workers {
		lo := min(cand.conf.RowLo, dead.conf.RowLo)
		hi := max(cand.conf.RowHi, dead.conf.RowHi)
		eligible := true
		for _, other := range c.workers {
			if other != cand && other.conf.RowLo < hi && lo < other.conf.RowHi {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if best == nil || len(cand.conf.Shard.Entries) < len(best.conf.Shard.Entries) {
			best = cand
		}
	}
	return best
}

// inherit merges dead's assignment into heir: salvaged P rows, shard
// entries, the widened row range, and rebuilt push buffers.
func (c *Cluster) inherit(dead, heir *workerState) {
	k := c.cfg.K
	newLo := min(heir.conf.RowLo, dead.conf.RowLo)
	newHi := max(heir.conf.RowHi, dead.conf.RowHi)
	oldLo, oldHi := heir.conf.RowLo, heir.conf.RowHi

	// Seed every inherited row (dead's range plus any gap the hull closes)
	// from the server's P — preprocessing step ③ replayed for the heir.
	for row := newLo; row < newHi; row++ {
		if row >= oldLo && row < oldHi {
			continue
		}
		copy(heir.local.P[row*k:(row+1)*k], c.global.P[row*k:(row+1)*k])
	}
	// Salvage the dead worker's replica through the shared mapping and
	// land it both server-side and in the heir. Under Q-only this is the
	// one case global P moves before the final push: the owner's final
	// push will never come.
	lo, hi := dead.conf.RowLo*k, dead.conf.RowHi*k
	copy(c.global.P[lo:hi], dead.local.P[lo:hi])
	copy(heir.local.P[lo:hi], dead.local.P[lo:hi])

	// The merged shard is a new COO, as a rebalance's shards are: an
	// engine's cached block layout must never outlive the entries it was
	// built from.
	own, gone := heir.conf.Shard.Entries, dead.conf.Shard.Entries
	merged := make([]sparse.Rating, 0, len(own)+len(gone))
	heir.conf.Shard = &sparse.COO{Rows: heir.conf.Shard.Rows, Cols: heir.conf.Shard.Cols,
		Entries: append(append(merged, own...), gone...)}
	heir.conf.RowLo, heir.conf.RowHi = newLo, newHi
	heir.conf.Weight += dead.conf.Weight
	// The stream chunk cache buckets the old shard; rebuild lazily.
	heir.chunks = nil

	// Rebuild the P push buffer for the widened range, pre-filled from the
	// heir's replica so a sync that lands between this eviction and the
	// heir's next push stays row-aligned.
	if c.cfg.Strategy.QOnly {
		heir.pushP = make([]float32, (newHi-newLo)*k)
		copy(heir.pushP, heir.local.P[newLo*k:newHi*k])
	} else {
		copy(heir.pushP[newLo*k:newHi*k], heir.local.P[newLo*k:newHi*k])
	}
}
