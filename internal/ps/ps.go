// Package ps implements HCC-MF's parameter-server runtime (paper Sections
// 3.1 and 3.5) with real computation: a server owns the global feature
// matrices; each worker holds a local replica, and every epoch runs the
// pull → compute → push → sync cycle. Workers execute concurrently in their
// own goroutines (data parallelism over a row grid), transfers go through a
// comm.Transport so copy semantics match the paper's COMM module, and the
// server's sync thread folds each push into the global model with one
// multiply-add per parameter.
//
// The package deals only in *correctness* (real updates, real RMSE).
// Simulated timing of the same cycle lives in internal/core, which charges
// the cost model against a simengine platform.
package ps

import (
	"errors"
	"fmt"
	"sync"

	"hccmf/internal/comm"
	"hccmf/internal/fp16"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/schedule"
	"hccmf/internal/sparse"
	"hccmf/internal/trace"
)

// WorkerConf describes one worker's assignment.
type WorkerConf struct {
	// Name identifies the worker in stats.
	Name string
	// Engine executes the worker's local SGD pass.
	Engine mf.Engine
	// Shard is the worker's training data; every entry must fall inside
	// [RowLo, RowHi). Dimensions must equal the global matrix.
	Shard *sparse.COO
	// RowLo, RowHi delimit the worker's row-grid range.
	RowLo, RowHi int
	// Weight is the server's blend factor when folding this worker's Q
	// push (normalised across workers at construction).
	Weight float64
	// Transport, when non-nil, overrides Config.Transport for this worker.
	// It models a per-worker link, letting one worker's channel degrade
	// (or die) independently of the rest of the cluster.
	Transport comm.Transport
}

// Config is the cluster-wide training configuration.
type Config struct {
	M, N, K int
	Hyper   mf.HyperParams
	// Transport moves feature data (COMM or COMM-P).
	Transport comm.Transport
	// Strategy selects payloads and encodings.
	Strategy comm.Strategy
	// MeanRating seeds factor initialisation.
	MeanRating float64
	// Seed makes initialisation reproducible.
	Seed uint64
	// LRSchedule, when non-nil, overrides Hyper.Gamma per epoch (e.g.
	// cuMF_SGD's inverse decay). Regularisers stay fixed.
	LRSchedule mf.Schedule
	// Schedule configures adaptive epoch-boundary rebalancing (see
	// internal/schedule): with Policy Throughput the cluster feeds each
	// worker's measured phase seconds into a re-solve at the sync barrier
	// and re-shards when the predicted makespan gain clears the hysteresis
	// threshold. The zero value (Policy Off) keeps the static split.
	// Rebalancing needs per-worker timing: either an Obs observer with a
	// clock, or a deterministic Schedule.Measure hook.
	Schedule schedule.Config
	// EvictOnFailure enables graceful degradation: a worker whose
	// transfers still fail after the transport's own retries is evicted —
	// its row range and shard move to a survivor — instead of aborting
	// the whole run. Off by default (a failure aborts, as before).
	EvictOnFailure bool
	// Obs, when non-nil, receives phase spans and run metrics from the
	// training loop (see internal/obs). The cluster never reads a clock
	// itself — events carry whatever clock the observer's tracer was built
	// with, which keeps this package inside the simtime invariant.
	Obs *obs.Observer
}

// Cluster is a live parameter-server training instance.
type Cluster struct {
	cfg     Config
	global  *mf.Factors
	workers []*workerState
	// baseQ snapshots the global Q each epoch's pulls were served from, so
	// sync can fold each worker's *delta* against it. Under FP16 it holds
	// the encode/decode round-trip of the global Q (see snapshotBaseQ).
	baseQ []float32
	// baseQStage is the FP16 staging buffer for snapshotBaseQ.
	baseQStage []fp16.Bits16
	// evictions records workers removed by fault tolerance.
	evictions []Eviction
	// rebalancer drives adaptive epoch-boundary rescheduling (nil when
	// Config.Schedule is Off — the static path costs one nil check).
	rebalancer *schedule.Rebalancer
	// rebalances records the re-shards performed so far.
	rebalances []Rebalance
	// loadScratch is maybeRebalance's reused per-epoch load vector.
	loadScratch []schedule.WorkerLoad

	// deltaPool recycles foldQRows' per-row delta accumulators. A pool
	// (rather than one buffer on the cluster) because async mode folds
	// different Q slices concurrently from stream goroutines.
	deltaPool sync.Pool
	// phaseWorkers/phaseErrs are runPhase's reused scratch; valid only for
	// the duration of one phase (settle reads them before the next starts).
	phaseWorkers []*workerState
	phaseErrs    []error
	// snapScratch is Train's reused observer snapshot (see Train).
	snapScratch *mf.Factors
	// coord is the async mode's reused slice coordinator (see coordinator).
	coord        *sliceCoordinator
	coordStreams int

	// observer/metrics mirror cfg.Obs; both are nil-safe on every path, so
	// uninstrumented clusters pay only dead branches.
	observer *obs.Observer
	metrics  *obs.RunMetrics

	mu    sync.Mutex
	stats comm.TransferStats
}

type workerState struct {
	// id is the worker's stable index in the original roster; it names the
	// worker's push shards on the transport (comm.WorkerShard) and stays
	// fixed across evictions so a remote store never sees two workers
	// claim one buffer.
	id    int
	conf  WorkerConf
	local *mf.Factors
	// pushQ is the worker's push buffer for Q (and pushP for final P
	// pushes): the shared region the server folds from.
	pushQ []float32
	pushP []float32
	// chunks caches the shard bucketed by item slice and tile-ordered
	// (async mode; see sliceChunks).
	chunks [][]sparse.Rating
	// epochSeconds accumulates this epoch's measured pull+compute+push
	// span durations for the rebalancer. Written only by the worker's own
	// phase goroutine; the WaitGroup barrier between phases orders the
	// writes against the server's epoch-boundary read and reset.
	epochSeconds float64
}

// New validates the configuration and builds a cluster with initialised
// global factors.
func New(cfg Config, workers []WorkerConf) (*Cluster, error) {
	if cfg.M <= 0 || cfg.N <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("ps: invalid dims m=%d n=%d k=%d", cfg.M, cfg.N, cfg.K)
	}
	if cfg.Transport == nil {
		return nil, errors.New("ps: nil transport")
	}
	if len(workers) == 0 {
		return nil, errors.New("ps: no workers")
	}
	var wsum float64
	for i := range workers {
		w := &workers[i]
		if w.Engine == nil {
			return nil, fmt.Errorf("ps: worker %q has no engine", w.Name)
		}
		if w.Shard == nil || w.Shard.Rows != cfg.M || w.Shard.Cols != cfg.N {
			return nil, fmt.Errorf("ps: worker %q shard dims mismatch", w.Name)
		}
		if w.RowLo < 0 || w.RowHi > cfg.M || w.RowLo >= w.RowHi {
			return nil, fmt.Errorf("ps: worker %q row range [%d,%d)", w.Name, w.RowLo, w.RowHi)
		}
		for _, e := range w.Shard.Entries {
			if int(e.U) < w.RowLo || int(e.U) >= w.RowHi {
				return nil, fmt.Errorf("ps: worker %q entry row %d outside [%d,%d)",
					w.Name, e.U, w.RowLo, w.RowHi)
			}
		}
		if w.Weight <= 0 {
			return nil, fmt.Errorf("ps: worker %q weight %v", w.Name, w.Weight)
		}
		wsum += w.Weight
	}
	// Row ranges must not overlap (overlap would let two workers push the
	// same P rows — the WAW race the row grid exists to avoid).
	for i := range workers {
		for j := i + 1; j < len(workers); j++ {
			a, b := workers[i], workers[j]
			if a.RowLo < b.RowHi && b.RowLo < a.RowHi {
				return nil, fmt.Errorf("ps: workers %q and %q have overlapping row ranges", a.Name, b.Name)
			}
		}
	}

	rng := sparse.NewRand(cfg.Seed)
	c := &Cluster{
		cfg:        cfg,
		global:     mf.NewFactorsInit(cfg.M, cfg.N, cfg.K, cfg.MeanRating, rng),
		baseQ:      make([]float32, cfg.N*cfg.K),
		observer:   cfg.Obs,
		metrics:    cfg.Obs.RunMetrics(),
		rebalancer: schedule.New(cfg.Schedule),
	}
	for i := range workers {
		w := workers[i]
		w.Weight /= wsum
		ws := &workerState{
			id:    i,
			conf:  w,
			local: mf.NewFactors(cfg.M, cfg.N, cfg.K),
			pushQ: make([]float32, cfg.N*cfg.K),
		}
		if cfg.Strategy.QOnly {
			// Final push carries only the worker's own rows.
			ws.pushP = make([]float32, (w.RowHi-w.RowLo)*cfg.K)
			// Preprocessing (workflow step ③): the server hands each
			// worker its P rows once, before training; not bus-charged.
			lo, hi := w.RowLo*cfg.K, w.RowHi*cfg.K
			copy(ws.local.P[lo:hi], c.global.P[lo:hi])
		} else {
			// The naive baseline pushes the complete P every epoch.
			ws.pushP = make([]float32, cfg.M*cfg.K)
		}
		c.workers = append(c.workers, ws)
	}
	// A remote transport serves pulls from its own store, not this
	// process's memory: seed it with the initial factors so epoch 0 pulls
	// the same model an in-process run starts from.
	if err := c.publishGlobal(true); err != nil {
		return nil, err
	}
	return c, nil
}

// publishGlobal uploads the authoritative global factors to the remote
// store after they change (initialisation, every sync barrier), always in
// FP32 — the store holds full precision and the strategy's encoding is
// applied per-pull on the wire, so a remote pull delivers exactly
// roundtrip(global), bit-identical to the in-process transports. On
// in-process transports (no Remote capability) this is a no-op: the
// cluster's memory IS the store. withP skips the user matrix on the
// epochs it cannot have changed (Q-only middle epochs).
func (c *Cluster) publishGlobal(withP bool) error {
	rem, ok := comm.AsRemote(c.cfg.Transport)
	if !ok {
		return nil
	}
	st, err := rem.SyncShard(c.global.Q, comm.Xfer{
		Shard: comm.GlobalShard(comm.MatrixQ, 0, len(c.global.Q)),
		Enc:   comm.FP32,
	})
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: publish global Q: %v", err)
	}
	if !withP {
		return nil
	}
	st, err = rem.SyncShard(c.global.P, comm.Xfer{
		Shard: comm.GlobalShard(comm.MatrixP, 0, len(c.global.P)),
		Enc:   comm.FP32,
	})
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: publish global P: %v", err)
	}
	return nil
}

// Global exposes the server's model (read-only by convention; call between
// epochs only).
func (c *Cluster) Global() *mf.Factors { return c.global }

// CommStats reports accumulated transfer accounting.
func (c *Cluster) CommStats() comm.TransferStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Workers reports the number of workers.
func (c *Cluster) Workers() int { return len(c.workers) }

// RunEpoch executes one full pull → compute → push → sync cycle. epoch is
// 0-based; total is the planned epoch count (the strategy needs both to
// place the first full pull and the final full push).
func (c *Cluster) RunEpoch(epoch, total int) error {
	if epoch < 0 || total <= 0 || epoch >= total {
		return fmt.Errorf("ps: epoch %d of %d", epoch, total)
	}
	span := c.observer.Span(obs.ProcReal, "server", "ps", "epoch")
	err := c.runEpoch(epoch, total)
	c.metrics.ObserveEpoch(span.EndArg("epoch", float64(epoch)))
	return err
}

func (c *Cluster) runEpoch(epoch, total int) error {
	if c.cfg.Strategy.Streams > 1 {
		return c.runEpochAsync(epoch, total)
	}
	// Snapshot the Q every worker is about to pull; sync folds deltas
	// against it.
	snap := c.observer.Span(obs.ProcReal, "server", "ps", "snapshot")
	c.snapshotBaseQ()
	snap.End()
	// A worker that fails a phase is settled — evicted or fatal — before
	// the next phase starts, so an evicted worker never computes or pushes
	// and its heir trains the absorbed shard the same epoch.
	if err := c.phase(epoch, func(ws *workerState) error { return c.pull(ws, epoch) }); err != nil {
		return err
	}
	h := c.hyperFor(epoch)
	if err := c.phase(epoch, func(ws *workerState) error {
		span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "compute")
		ws.conf.Engine.Epoch(ws.local, ws.conf.Shard, h)
		sec := span.End()
		c.metrics.ObservePhase(trace.Compute, sec)
		ws.epochSeconds += sec
		return nil
	}); err != nil {
		return err
	}
	if err := c.phase(epoch, func(ws *workerState) error { return c.push(ws, epoch, total) }); err != nil {
		return err
	}
	// Sync runs on the server thread (the paper's Sync thread), draining
	// all push buffers.
	span := c.observer.Span(obs.ProcReal, "server", "ps", "sync")
	c.syncAll(epoch, total)
	c.metrics.ObservePhase(trace.Sync, span.End())
	// P changes at sync only when it was pushed this epoch.
	if err := c.publishGlobal(!c.cfg.Strategy.QOnly || epoch == total-1); err != nil {
		return err
	}
	// Adaptive rescheduling happens strictly at the epoch boundary: every
	// push is folded, the global model is published, no worker is running.
	return c.maybeRebalance(epoch, total)
}

// snapshotBaseQ records the Q this epoch's pulls are served from. Under
// FP16 the snapshot takes the same encode/decode round-trip the pulls see:
// a worker that never touches a row pushes back exactly roundtrip(global
// Q), so diffing against the round-tripped base leaves untouched rows at
// delta zero. Diffing against the raw global Q (the old behaviour) made
// quantization error look like an update from every worker — dragging
// untouched rows toward their FP16 rounding each epoch and inflating the
// updater count that divides real conflicting deltas.
func (c *Cluster) snapshotBaseQ() {
	copy(c.baseQ, c.global.Q)
	if c.cfg.Strategy.Encoding == comm.FP16 {
		if c.baseQStage == nil {
			c.baseQStage = make([]fp16.Bits16, len(c.baseQ))
		}
		fp16.EncodeSlice(c.baseQStage, c.baseQ)
		fp16.DecodeSlice(c.baseQ, c.baseQStage)
	}
}

// hyperFor applies the learning-rate schedule, if any, to the epoch.
func (c *Cluster) hyperFor(epoch int) mf.HyperParams {
	h := c.cfg.Hyper
	if c.cfg.LRSchedule != nil {
		h.Gamma = c.cfg.LRSchedule.Gamma(epoch)
	}
	return h
}

// runPhase executes fn once per current worker concurrently, returning the
// worker snapshot the results are aligned to (evictions mutate c.workers,
// so callers must not index into it with the phase's error slice). Both
// returned slices are scratch reused by the next phase; settle consumes
// them within the phase, nothing may retain them.
func (c *Cluster) runPhase(fn func(*workerState) error) ([]*workerState, []error) {
	c.phaseWorkers = append(c.phaseWorkers[:0], c.workers...)
	workers := c.phaseWorkers
	if cap(c.phaseErrs) < len(workers) {
		c.phaseErrs = make([]error, len(workers))
	}
	errs := c.phaseErrs[:len(workers)]
	for i := range errs {
		errs[i] = nil
	}
	var wg sync.WaitGroup
	for i, ws := range workers {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			errs[i] = fn(ws)
		}(i, ws)
	}
	wg.Wait()
	return workers, errs
}

// phase runs one bulk-synchronous phase and settles its failures.
func (c *Cluster) phase(epoch int, fn func(*workerState) error) error {
	workers, errs := c.runPhase(fn)
	_, err := c.settle(epoch, workers, errs)
	return err
}

// transportFor resolves the worker's link (per-worker override or the
// cluster-wide transport).
func (c *Cluster) transportFor(ws *workerState) comm.Transport {
	if ws.conf.Transport != nil {
		return ws.conf.Transport
	}
	return c.cfg.Transport
}

// pull downloads the feature data the strategy calls for this epoch.
// Transfer stats are accounted even when the transfer fails: a retried or
// truncated attempt consumed real bus time.
func (c *Cluster) pull(ws *workerState, epoch int) error {
	span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "pull")
	err := c.pullData(ws, epoch)
	sec := span.End()
	c.metrics.ObservePhase(trace.Pull, sec)
	ws.epochSeconds += sec
	return err
}

func (c *Cluster) pullData(ws *workerState, epoch int) error {
	enc := c.cfg.Strategy.Encoding
	tr := c.transportFor(ws)
	// Q always travels.
	st, err := tr.Pull(ws.local.Q, c.global.Q, comm.Xfer{
		Shard: comm.GlobalShard(comm.MatrixQ, 0, len(c.global.Q)),
		Enc:   enc,
	})
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: pull Q for %q: %v", ws.conf.Name, err)
	}
	if !c.cfg.Strategy.QOnly {
		// Naive baseline: the complete P every epoch.
		st, err := tr.Pull(ws.local.P, c.global.P, comm.Xfer{
			Shard: comm.GlobalShard(comm.MatrixP, 0, len(c.global.P)),
			Enc:   enc,
		})
		c.account(st)
		if err != nil {
			return fmt.Errorf("ps: pull P for %q: %v", ws.conf.Name, err)
		}
	}
	return nil
}

// push uploads the worker's updates into its push buffers.
func (c *Cluster) push(ws *workerState, epoch, total int) error {
	span := c.observer.Span(obs.ProcReal, ws.conf.Name, "ps", "push")
	err := c.pushData(ws, epoch, total)
	sec := span.End()
	c.metrics.ObservePhase(trace.Push, sec)
	ws.epochSeconds += sec
	return err
}

func (c *Cluster) pushData(ws *workerState, epoch, total int) error {
	enc := c.cfg.Strategy.Encoding
	tr := c.transportFor(ws)
	st, err := tr.Push(ws.pushQ, ws.local.Q, comm.Xfer{
		Shard: comm.WorkerShard(comm.MatrixQ, ws.id, 0, len(ws.pushQ)),
		Enc:   enc,
	})
	c.account(st)
	if err != nil {
		return fmt.Errorf("ps: push Q for %q: %v", ws.conf.Name, err)
	}
	switch {
	case !c.cfg.Strategy.QOnly:
		// Naive baseline: full P every epoch.
		st, err := tr.Push(ws.pushP, ws.local.P, comm.Xfer{
			Shard: comm.WorkerShard(comm.MatrixP, ws.id, 0, len(ws.pushP)),
			Enc:   enc,
		})
		c.account(st)
		if err != nil {
			return fmt.Errorf("ps: push P for %q: %v", ws.conf.Name, err)
		}
	case epoch == total-1:
		// Final Q-only push adds the worker's own P rows.
		lo, hi := ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
		st, err := tr.Push(ws.pushP, ws.local.P[lo:hi], comm.Xfer{
			Shard: comm.WorkerShard(comm.MatrixP, ws.id, lo, hi),
			Enc:   enc,
		})
		c.account(st)
		if err != nil {
			return fmt.Errorf("ps: push P for %q: %v", ws.conf.Name, err)
		}
	}
	return nil
}

// syncAll folds every worker's push buffers into the global model with the
// paper's one-multiply-add-per-parameter rule, applied conflict-aware per
// Q row: q ← q + Σ_i (q_i − q_base)/c, where c counts the workers that
// actually updated the row this epoch. Rows trained by a single worker
// take its delta verbatim (no damping of the effective learning rate);
// rows hit by several workers — the WAW conflicts the row grid cannot
// avoid — are averaged among the actual updaters, which keeps the Zipf
// head stable. Each worker's own P rows are copied verbatim (row-grid
// ranges are disjoint, so no blending is needed).
func (c *Cluster) syncAll(epoch, total int) {
	c.foldQRows(0, c.cfg.N)
	for _, ws := range c.workers {
		lo, hi := ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
		switch {
		case !c.cfg.Strategy.QOnly:
			// The push buffer holds the full P; only the worker's own rows
			// are authoritative — the rest is the stale pull, which the
			// server ignores (folding it would let workers revert each
			// other).
			copy(c.global.P[lo:hi], ws.pushP[lo:hi])
		case epoch == total-1:
			copy(c.global.P[lo:hi], ws.pushP)
		}
	}
}

func (c *Cluster) account(st comm.TransferStats) {
	c.mu.Lock()
	c.stats.Add(st)
	c.mu.Unlock()
}

// foldQRows folds every worker's pushed Q rows in [rowLo, rowHi) into the
// global model, conflict-aware (see syncAll). Callers must ensure the row
// range is quiescent: either the bulk-synchronous epoch boundary, or the
// async slice coordinator's all-workers-pushed condition.
func (c *Cluster) foldQRows(rowLo, rowHi int) {
	k := c.cfg.K
	g := c.global.Q
	buf, _ := c.deltaPool.Get().(*[]float32)
	if buf == nil || len(*buf) != k {
		b := make([]float32, k)
		buf = &b
	}
	defer c.deltaPool.Put(buf)
	rowDelta := *buf
	for row := rowLo; row < rowHi; row++ {
		lo := row * k
		updaters := 0
		for i := range rowDelta {
			rowDelta[i] = 0
		}
		for _, ws := range c.workers {
			touched := false
			for i := 0; i < k; i++ {
				if d := ws.pushQ[lo+i] - c.baseQ[lo+i]; d != 0 {
					rowDelta[i] += d
					touched = true
				}
			}
			if touched {
				updaters++
			}
		}
		if updaters == 0 {
			continue
		}
		inv := 1 / float32(updaters)
		for i := 0; i < k; i++ {
			g[lo+i] += rowDelta[i] * inv
		}
	}
}

// Snapshot assembles the logically complete model for evaluation: global Q
// plus each worker's authoritative P rows (which, under Q-only, have not
// been pushed yet). Evaluation is out of band and charges no communication.
func (c *Cluster) Snapshot() *mf.Factors {
	out := mf.NewFactors(c.cfg.M, c.cfg.N, c.cfg.K)
	c.snapshotInto(out)
	return out
}

// snapshotInto overlays the logically complete model onto dst (same shape
// as the global factors).
func (c *Cluster) snapshotInto(dst *mf.Factors) {
	dst.CopyFrom(c.global)
	if c.cfg.Strategy.QOnly {
		for _, ws := range c.workers {
			lo, hi := ws.conf.RowLo*c.cfg.K, ws.conf.RowHi*c.cfg.K
			copy(dst.P[lo:hi], ws.local.P[lo:hi])
		}
	}
}

// Train runs the full epoch loop, invoking observe (if non-nil) with the
// 0-based epoch index and a post-sync model snapshot after every epoch.
// The snapshot passed to observe is a buffer reused across epochs: it is
// valid only for the duration of the call and must not be retained (every
// in-tree observer evaluates it immediately).
func (c *Cluster) Train(epochs int, observe func(epoch int, model *mf.Factors)) error {
	for e := 0; e < epochs; e++ {
		if err := c.RunEpoch(e, epochs); err != nil {
			return err
		}
		if observe != nil {
			if c.snapScratch == nil {
				c.snapScratch = mf.NewFactors(c.cfg.M, c.cfg.N, c.cfg.K)
			}
			c.snapshotInto(c.snapScratch)
			observe(e, c.snapScratch)
		}
	}
	return nil
}
