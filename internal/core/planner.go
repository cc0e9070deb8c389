package core

import (
	"fmt"

	"hccmf/internal/comm"
	"hccmf/internal/costmodel"
	"hccmf/internal/dataset"
	"hccmf/internal/partition"
	"hccmf/internal/sparse"
)

// Plan is the DataManager's decision for one training job: grid
// orientation, communication strategy, partition and the cost-model
// estimate that justified them.
type Plan struct {
	// Platform is the *effective* platform: when Strategy 3 (async
	// streams) is active the server CPU stops time-sharing as a worker
	// (Section 3.5), so the time-shared worker is dropped here.
	Platform Platform
	// Grid is the chosen grid orientation.
	Grid sparse.GridKind
	// Transposed reports whether the problem was transposed so that the
	// grid dimension is the longer one (n > m input).
	Transposed bool
	// M, N are the effective (possibly transposed) dimensions.
	M, N int
	// K is the latent dimension.
	K int
	// Strategy is the chosen communication configuration.
	Strategy comm.Strategy
	// Partition holds each worker's data share (sums to 1) on the
	// simulated platform: DP0/DP1/DP2 over the Table 2/4 device rates. It
	// drives the simulator; real execution cuts its shards by host core
	// budgets instead (BuildWorkerConfs) unless SharesForced is set.
	Partition []float64
	// SharesForced reports that Partition came from
	// PlanOptions.ForceShares; real execution then trains those shares too.
	SharesForced bool
	// PartitionStrategy records which DP produced the partition.
	PartitionStrategy partition.Strategy
	// ExposedSyncs is the t of Eq. 3 under this plan.
	ExposedSyncs int
	// TransportFactor inflates simulated transfer times to model a slower
	// transport implementation (1 = COMM shared memory; the COMM-P
	// message baseline calibrates to ~6.6 from Table 5).
	TransportFactor float64
	// Estimate is the cost model's view of one epoch under the plan.
	Estimate costmodel.Estimate
}

// PlanOptions tunes planning.
type PlanOptions struct {
	// K is the latent dimension (default 128, cuMF_SGD's configuration).
	K int
	// Lambda is the sync-hiding threshold (default costmodel.DefaultLambda).
	Lambda float64
	// Streams is the async pipeline depth Strategy 3 may use (default 4).
	Streams int
	// ForceStrategy, when non-nil, bypasses strategy selection (the
	// communication experiments sweep it explicitly).
	ForceStrategy *comm.Strategy
	// ForcePartition, when non-zero, stops partition refinement at the
	// given strategy (DP0/DP1/DP2 comparisons in Figure 8).
	ForcePartition *partition.Strategy
	// ForceShares, when non-nil, bypasses partitioning entirely with the
	// given shares (the "unbalanced data" misconfiguration of Figure 3).
	ForceShares []float64
	// TransportFactor models the transport implementation's slowdown
	// relative to COMM (0 or 1 = COMM; Table 5's COMM-P is ~6.6).
	TransportFactor float64
}

func (o *PlanOptions) defaults() {
	if o.K <= 0 {
		o.K = 128
	}
	if o.Lambda <= 0 {
		o.Lambda = costmodel.DefaultLambda
	}
	if o.Streams <= 0 {
		o.Streams = 4
	}
}

// PlanRun makes every decision the paper's DataManager makes before
// training starts: grid orientation (Section 3.3), communication strategy
// (Section 3.4), and the data partition — DP0, refined to DP1 via
// Algorithm 1 against the calibrated load-dependent device model, then
// restaggered to DP2 when the cost model says synchronisation cannot be
// ignored (Eq. 5).
func PlanRun(plat Platform, spec dataset.Spec, opts PlanOptions) (Plan, error) {
	if err := plat.Validate(); err != nil {
		return Plan{}, err
	}
	opts.defaults()

	plan := Plan{K: opts.K, M: spec.M, N: spec.N, Grid: sparse.PreferredGrid(spec.M, spec.N)}
	if plan.Grid == sparse.ColGrid {
		// Work on the transpose so the rest of the pipeline always sees a
		// row grid with m ≥ n.
		plan.Transposed = true
		plan.M, plan.N = spec.N, spec.M
	}

	// Communication strategy.
	if opts.ForceStrategy != nil {
		plan.Strategy = *opts.ForceStrategy
	} else {
		plan.Strategy = comm.Choose(opts.K, plan.M, plan.N, spec.NNZ, opts.Streams)
	}

	// With async computing-transmission the server synchronises
	// mid-stream, so its CPU can no longer time-share as a worker
	// (Section 3.5): drop time-shared workers from the effective platform.
	plan.Platform = plat
	if plan.Strategy.Streams > 1 {
		kept := Platform{Server: plat.Server}
		for _, w := range plat.Workers {
			if !w.TimeShared {
				kept.Workers = append(kept.Workers, w)
			}
		}
		if len(kept.Workers) > 0 {
			plan.Platform = kept
		}
	}
	plat = plan.Platform

	plan.TransportFactor = opts.TransportFactor
	if plan.TransportFactor < 1 {
		plan.TransportFactor = 1
	}
	if opts.ForceShares != nil {
		if len(opts.ForceShares) != len(plat.Workers) {
			return Plan{}, fmt.Errorf("core: %d forced shares for %d workers",
				len(opts.ForceShares), len(plat.Workers))
		}
		plan.Partition = append([]float64(nil), opts.ForceShares...)
		plan.SharesForced = true
		plan.PartitionStrategy = partition.DP0Strategy
		plan.ExposedSyncs = len(plat.Workers)
		prob := costmodel.Problem{M: plan.M, N: plan.N, NNZ: spec.NNZ, K: opts.K}
		est, err := costmodel.EpochTime(prob, costServer(plat),
			plan.costWorkers(plat, spec), plan.Partition, plan.ExposedSyncs, opts.Lambda)
		if err != nil {
			return Plan{}, err
		}
		plan.Estimate = est
		return plan, nil
	}

	// Partition: DP0 from standalone rates.
	rates := plat.Rates(spec.Name)
	x0, err := partition.DP0(rates)
	if err != nil {
		return Plan{}, err
	}
	plan.Partition = x0
	plan.PartitionStrategy = partition.DP0Strategy

	// DP1 balances on the *total* per-worker time it can observe — compute
	// plus the transfer cost the worker cannot hide (workers without copy
	// engines expose their full pull+push; async workers expose
	// 1/streams of it). Without the comm term, a copy-engine-less CPU
	// sharing a comm-heavy job becomes the straggler DP0 cannot see.
	measure := plan.analyticMeasure(plat, spec, true)
	computeOnly := plan.analyticMeasure(plat, spec, false)
	stopAt := partition.DP2Strategy
	if opts.ForcePartition != nil {
		stopAt = *opts.ForcePartition
	}

	if stopAt >= partition.DP1Strategy {
		x1, _, err := partition.DP1(x0, measure(x0), plat.IsCPU(), measure, partition.DP1Options{})
		if err != nil {
			return Plan{}, err
		}
		plan.Partition = x1
		plan.PartitionStrategy = partition.DP1Strategy
	}

	// Cost-model check: does synchronisation matter?
	prob := costmodel.Problem{M: plan.M, N: plan.N, NNZ: spec.NNZ, K: opts.K}
	workers := plan.costWorkers(plat, spec)
	plan.ExposedSyncs = len(workers)
	est, err := costmodel.EpochTime(prob, costServer(plat),
		workers, plan.Partition, plan.ExposedSyncs, opts.Lambda)
	if err != nil {
		return Plan{}, err
	}
	plan.Estimate = est

	// DP2 staggering only helps the synchronous mode, where every worker's
	// sync queues behind the slowest finisher. With async streams
	// (Strategy 3) synchronisation already interleaves with other streams'
	// compute mid-epoch (Figure 6), so the partition stays balanced and
	// only the trailing sync is exposed.
	if plan.Strategy.Streams > 1 {
		plan.ExposedSyncs = 1
		est, err = costmodel.EpochTime(prob, costServer(plat),
			workers, plan.Partition, plan.ExposedSyncs, opts.Lambda)
		if err != nil {
			return Plan{}, err
		}
		plan.Estimate = est
		return plan, nil
	}

	if stopAt >= partition.DP2Strategy && !est.SyncHidden {
		syncOne := est.SyncTotal / float64(len(workers))
		// DP2's linear rescaling assumes time ∝ share, which holds for the
		// compute term only.
		x2, err := partition.DP2(plan.Partition, computeOnly(plan.Partition), syncOne)
		if err != nil {
			return Plan{}, err
		}
		plan.Partition = x2
		plan.PartitionStrategy = partition.DP2Strategy
		plan.ExposedSyncs = 1
		est, err = costmodel.EpochTime(prob, costServer(plat),
			workers, plan.Partition, plan.ExposedSyncs, opts.Lambda)
		if err != nil {
			return Plan{}, err
		}
		plan.Estimate = est
	}
	return plan, nil
}

// costWorkers converts the platform into the cost model's worker profiles
// under the plan's strategy. Per-direction payload is the steady-state
// (mid-training) pull volume; owned rows are approximated by the share.
func (p Plan) costWorkers(plat Platform, spec dataset.Spec) []costmodel.Worker {
	out := make([]costmodel.Worker, len(plat.Workers))
	bytesPer := p.Strategy.Encoding.BytesPerParam()
	for i, w := range plat.Workers {
		payload := float64(p.Strategy.PullParams(p.K, p.M, p.N, 1, 2) * int64(bytesPer))
		out[i] = costmodel.Worker{
			Name:      w.Name(),
			Rate:      w.Device.UpdateRate(spec.Name),
			BusBW:     w.Bus.Bandwidth(),
			CommBytes: payload,
			Streams:   p.Strategy.EffectiveStreams(w.Device.HasCopyEngine),
		}
	}
	return out
}

// analyticMeasure builds DP1's feedback function from the calibrated
// load-dependent device model: compute time = x·nnz / EffectiveRate(x),
// plus — when includeComm is set — the per-epoch transfer time the worker
// cannot hide under the plan's strategy.
func (p Plan) analyticMeasure(plat Platform, spec dataset.Spec, includeComm bool) partition.MeasureFunc {
	bytesPer := p.Strategy.Encoding.BytesPerParam()
	payload := float64(p.Strategy.PullParams(p.K, p.M, p.N, 1, 2) * int64(bytesPer))
	return func(x []float64) []float64 {
		t := make([]float64, len(x))
		for i, w := range plat.Workers {
			t[i] = x[i] * float64(spec.NNZ) / w.Device.EffectiveRate(spec.Name, x[i])
			if includeComm {
				streams := p.Strategy.EffectiveStreams(w.Device.HasCopyEngine)
				t[i] += 2 * payload / w.Bus.Bandwidth() / float64(streams)
				if streams == 1 && p.Strategy.Streams > 1 {
					// In an async-mode run a synchronous worker (no copy
					// engine) also exposes its end-of-epoch sync while the
					// async workers hide theirs mid-stream; charging it
					// here makes DP1 shrink the worker until its sync
					// overlaps the others' remaining compute.
					t[i] += 3 * payload / plat.Server.MemBandwidth
				}
			}
		}
		return t
	}
}

// String summarises the plan.
func (p Plan) String() string {
	return fmt.Sprintf("grid=%v strategy=%v partition=%v(%s) syncs=%d est=%.4fs",
		p.Grid, p.Strategy, p.Partition, p.PartitionStrategy, p.ExposedSyncs, p.Estimate.Total)
}
