package core

import (
	"fmt"
	"runtime"
	"time"

	"hccmf/internal/comm"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/metrics"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/partition"
	"hccmf/internal/ps"
	"hccmf/internal/schedule"
	"hccmf/internal/sparse"
)

// RunConfig configures one end-to-end HCC-MF training run.
type RunConfig struct {
	// Spec is the (full-size) dataset whose shape drives planning and
	// simulated timing.
	Spec dataset.Spec
	// Platform is the machine to run on.
	Platform Platform
	// Epochs is the training length (the paper reports 20 for timing
	// tables and 100 for convergence curves).
	Epochs int
	// Plan tunes the planner.
	Plan PlanOptions
	// MaterializeScale, when > 0, also runs *real* training on a dataset
	// scaled by this factor, producing an RMSE convergence curve whose
	// time axis is the simulated clock. 0 skips real execution (timing
	// studies only need the simulator).
	MaterializeScale float64
	// Data, when non-nil, supplies the training/test split directly
	// (e.g. loaded from a ratings file) instead of generating a scaled
	// synthetic instance; it implies real execution regardless of
	// MaterializeScale. Spec must still describe the data's shape for
	// planning.
	Data *dataset.Dataset
	// RealK overrides the latent dimension of the real training run
	// (default: Plan.K, which can be slow on laptop-scale tests).
	RealK int
	// Transport is the communication implementation for real execution.
	// When nil, one is built from TransportSpec through the comm registry
	// and closed when the run finishes.
	Transport comm.Transport
	// TransportSpec selects the transport by registry kind when Transport
	// is nil: Kind "" or comm.KindShared is shared memory, comm.KindMessage
	// the ps-lite message path, and any registered wire transport (e.g.
	// "tcp" with Addr set) trains against a remote parameter server. The
	// run fills Workers and the factor dims; everything else (Addr,
	// OpTimeout) is the caller's.
	TransportSpec comm.Spec
	// LRSchedule, when non-nil, applies a per-epoch learning-rate schedule
	// to the real training run (e.g. mf.InverseDecay).
	LRSchedule mf.Schedule
	// Schedule configures adaptive epoch-boundary rescheduling of the
	// real training run (internal/schedule): Policy Throughput re-solves
	// the data partition from measured per-worker epoch seconds at every
	// sync barrier and re-shards when the predicted makespan gain clears
	// Hysteresis. The zero value keeps the planner's static split.
	Schedule schedule.Config
	// Seed drives dataset generation and factor initialisation.
	Seed uint64
	// Resilience is the run's fault-tolerance policy: injected faults,
	// retry budget, and eviction. The zero value is a failure-free run with
	// no retries where any transfer error aborts.
	Resilience Resilience
	// Tuning bounds host-side parallelism. The zero value splits
	// GOMAXPROCS evenly across the workers' engines.
	Tuning Tuning
	// Obs, when non-nil, instruments the run (see internal/obs): the real-
	// execution cluster reports phase spans and run metrics through it,
	// transfers are counted via a comm.Observed wrap, engines report epoch
	// throughput, and the simulated results land as gauges plus ProcSim
	// trace events.
	Obs *obs.Observer
	// OnEpoch, when non-nil, is called after every real-execution epoch
	// with the 0-based epoch index, the planned total, the epoch's held-out
	// RMSE, and the cumulative simulated seconds (the curve's time axis).
	// It runs on the training goroutine; keep it fast.
	OnEpoch func(epoch, total int, rmse, simSeconds float64)
}

// Resilience is the fault-tolerance policy of a run, layered outside-in:
// Fault injects failures on the raw link, Retry absorbs them above it, and
// eviction catches whatever the retry budget cannot.
type Resilience struct {
	// Fault, when active, wraps the real-execution transport with seeded
	// fault injection (chaos testing the PS runtime against a lossy link).
	Fault comm.FaultSpec
	// Retry, when enabled (Attempts > 1), wraps the transport with capped
	// exponential backoff; retries are accounted in CommStats.Retries.
	Retry comm.RetryPolicy
	// EvictOnFailure lets the cluster evict a worker whose transfers fail
	// even after retries, reassigning its rows to survivors instead of
	// aborting the run. Evictions are recorded in Result.Evictions.
	EvictOnFailure bool
}

// Tuning bounds the host-side parallelism of real execution.
type Tuning struct {
	// HostCap is each worker's core budget: the cap on its engine's
	// thread/group count. 0 splits the host evenly, max(1, GOMAXPROCS /
	// workers) per worker, so the workers' threads never sum past
	// GOMAXPROCS.
	HostCap int
	// EvalThreads is the evaluation (RMSE) parallelism. Evaluation runs
	// alone between epochs, so the default is GOMAXPROCS.
	EvalThreads int
}

// hostCap resolves the per-worker core budget for a run of workers.
func (t Tuning) hostCap(workers int) int {
	if t.HostCap > 0 {
		return t.HostCap
	}
	return max(1, runtime.GOMAXPROCS(0)/max(1, workers))
}

// evalThreads resolves the effective evaluation parallelism.
func (t Tuning) evalThreads() int {
	if t.EvalThreads > 0 {
		return t.EvalThreads
	}
	return runtime.GOMAXPROCS(0)
}

// Result is everything a run produces.
type Result struct {
	// Plan is the DataManager's decision record.
	Plan Plan
	// Sim holds simulated timing (total, per-epoch, per-phase trace).
	Sim *SimResult
	// Power is the achieved "computing power" (Eq. 8) on the simulated
	// clock; IdealPower sums the standalone device rates; Utilization is
	// their ratio (Table 4).
	Power, IdealPower, Utilization float64
	// Curve is the real-execution convergence trajectory (nil when
	// MaterializeScale was 0).
	Curve *metrics.Curve
	// FinalRMSE is the last point of Curve (0 without real execution).
	FinalRMSE float64
	// CommStats accounts real-execution transfers (zero without real
	// execution).
	CommStats comm.TransferStats
	// Evictions records workers removed mid-run by fault tolerance
	// (empty on a fault-free run).
	Evictions []ps.Eviction
	// Rebalances records the adaptive scheduler's re-shards (empty on a
	// static run).
	Rebalances []ps.Rebalance
	// Model is the trained factor model (nil without real execution). Its
	// orientation matches TrainedData (transposed when the plan was).
	Model *mf.Factors
	// TrainedData is the materialised dataset the model was trained on
	// (plan orientation), for seen-item exclusion and evaluation.
	TrainedData *dataset.Dataset
	// Shards is the cut real execution started from, one per worker (nil
	// without real execution). It follows the host core budgets, not
	// Plan.Partition; Rebalances and Evictions record later re-cuts.
	Shards []RealShard
}

// RealShard is one worker's share of real execution.
type RealShard struct {
	// Name is the worker's display name.
	Name string
	// RowLo, RowHi delimit the worker's row range.
	RowLo, RowHi int
	// Share is the worker's fraction of the training ratings.
	Share float64
	// Threads is the worker's core budget: its engine's thread or group
	// count.
	Threads int
}

// String renders the shard as "name rows [lo,hi) share% threadsT".
func (s RealShard) String() string {
	return fmt.Sprintf("%s rows [%d,%d) %.1f%% %dT", s.Name, s.RowLo, s.RowHi, 100*s.Share, s.Threads)
}

// Run plans, simulates and (optionally) really trains one job.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("core: epochs = %d", cfg.Epochs)
	}
	if cfg.MaterializeScale < 0 || cfg.MaterializeScale > 1 {
		return nil, fmt.Errorf("core: MaterializeScale = %v, want 0 (simulate only) or a shrink factor in (0,1]",
			cfg.MaterializeScale)
	}
	if err := cfg.Resilience.Fault.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanRun(cfg.Platform, cfg.Spec, cfg.Plan)
	if err != nil {
		return nil, err
	}
	sim, err := SimulateRun(cfg.Platform, cfg.Spec, plan, cfg.Epochs)
	if err != nil {
		return nil, err
	}

	res := &Result{Plan: plan, Sim: sim}
	res.Power = metrics.ComputingPower(cfg.Spec.NNZ, cfg.Epochs, sim.TotalTime)
	res.IdealPower = metrics.IdealPower(cfg.Platform.Rates(cfg.Spec.Name))
	res.Utilization = metrics.Utilization(res.Power, res.IdealPower)
	attachSimObs(cfg.Obs, res)

	if cfg.MaterializeScale > 0 || cfg.Data != nil {
		if err := runReal(cfg, plan, sim, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runReal executes the plan on the real parameter server with a
// materialised (scaled) dataset and attaches the convergence curve.
func runReal(cfg RunConfig, plan Plan, sim *SimResult, res *Result) error {
	spec := cfg.Spec
	ds := cfg.Data
	if ds == nil {
		if cfg.MaterializeScale < 1 {
			var err error
			spec, err = spec.Scaled(cfg.MaterializeScale)
			if err != nil {
				return err
			}
		}
		var err error
		ds, err = dataset.Generate(spec, cfg.Seed)
		if err != nil {
			return err
		}
	}
	train, test := ds.Train, ds.Test
	if plan.Transposed {
		train = train.Transpose()
		test = test.Transpose()
	}

	k := cfg.RealK
	if k <= 0 {
		k = plan.K
	}
	transport := cfg.Transport
	if transport == nil {
		spec := cfg.TransportSpec
		spec.Workers = len(cfg.Platform.Workers)
		spec.M, spec.N, spec.K = train.Rows, train.Cols, k
		built, err := comm.New(spec)
		if err != nil {
			return err
		}
		transport = built
		// The run owns what it built; a wire transport drops its pooled
		// connections here. In-process transports make this a no-op.
		defer func() { _ = comm.CloseTransport(built) }()
	}
	// The fault-tolerance stack wraps outside-in: faults are injected on
	// the raw link, retries absorb them above, eviction (in ps) catches
	// whatever the retry budget cannot.
	if cfg.Resilience.Fault.Active() {
		faulty, err := comm.NewFaulty(transport, cfg.Resilience.Fault)
		if err != nil {
			return err
		}
		transport = faulty
	}
	if cfg.Resilience.Retry.Enabled() {
		transport = comm.NewRetrying(transport, cfg.Resilience.Retry)
	}
	// The observation wrap goes outside retrying so one observation is one
	// logical transfer, retries already folded into its stats. Counters live
	// here only — ps.account keeps feeding CommStats independently.
	if run := cfg.Obs.RunMetrics(); run != nil {
		var now func() time.Time
		if clock := run.Clock(); clock != nil {
			now = func() time.Time { return time.Unix(0, int64(clock()*1e9)) }
		}
		transport = comm.NewObserved(transport, now, func(op string, st comm.TransferStats, seconds float64, failed bool) {
			run.CountTransfer(obs.TransferSample{
				BusBytes:   st.BusBytes,
				WireBytes:  st.WireBytes,
				Copies:     st.Copies,
				Retries:    st.Retries,
				Frames:     st.Frames,
				Handshakes: st.Handshakes,
				Seconds:    seconds,
				Failed:     failed,
			})
		})
	}

	confs, err := BuildWorkerConfs(plan.Platform, plan, train, cfg.Tuning)
	if err != nil {
		return err
	}
	shards := make([]RealShard, len(confs))
	for i, conf := range confs {
		if m, ok := conf.Engine.(mf.Metered); ok {
			m.SetMetrics(cfg.Obs.RunMetrics().EngineMetrics())
		}
		shards[i] = RealShard{
			Name:  conf.Name,
			RowLo: conf.RowLo, RowHi: conf.RowHi,
			Share:   float64(len(conf.Shard.Entries)) / float64(max(1, len(train.Entries))),
			Threads: engineThreads(conf.Engine),
		}
	}
	cluster, err := ps.New(ps.Config{
		M: train.Rows, N: train.Cols, K: k,
		Hyper: mf.HyperParams{
			Gamma:   spec.Params.Gamma,
			Lambda1: spec.Params.Lambda1,
			Lambda2: spec.Params.Lambda2,
		},
		Transport:      transport,
		Strategy:       plan.Strategy,
		MeanRating:     train.MeanRating(),
		Seed:           cfg.Seed + 1,
		LRSchedule:     cfg.LRSchedule,
		Schedule:       cfg.Schedule,
		EvictOnFailure: cfg.Resilience.EvictOnFailure,
		Obs:            cfg.Obs,
	}, confs)
	if err != nil {
		return err
	}

	threads := cfg.Tuning.evalThreads()
	evaluate := func(model *mf.Factors) float64 {
		span := cfg.Obs.Span(obs.ProcReal, "server", "core", "eval")
		rmse := mf.RMSEParallel(model, test.Entries, threads)
		cfg.Obs.RunMetrics().ObserveEval(span.End())
		return rmse
	}
	curve := &metrics.Curve{Label: "HCC-MF/" + spec.Name}
	curve.Append(0, 0, evaluate(cluster.Snapshot()))
	cum := 0.0
	err = cluster.Train(cfg.Epochs, func(e int, model *mf.Factors) {
		if e < len(sim.EpochTimes) {
			cum += sim.EpochTimes[e]
		}
		rmse := evaluate(model)
		curve.Append(e+1, cum, rmse)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(e, cfg.Epochs, rmse, cum)
		}
	})
	if err != nil {
		return err
	}
	res.Curve = curve
	res.FinalRMSE = curve.Final()
	res.CommStats = cluster.CommStats()
	res.Evictions = cluster.Evictions()
	res.Rebalances = cluster.Rebalances()
	res.Model = cluster.Snapshot()
	res.TrainedData = &dataset.Dataset{Spec: spec, Train: train, Test: test}
	res.Shards = shards
	return nil
}

// BuildWorkerConfs binds each worker to its execution engine and cuts the
// row grid into one shard per worker. The cut is DP0 (Eq. 6) over host
// rates: on one host a worker's device is the cores its engine owns, and
// every engine runs the same kernel, so a worker's rate is its engine's
// thread or group count. Plan.Partition, solved from the simulated
// devices' Table 2/4 rates, only drives the simulator — unless the plan
// forced its shares, which then apply here too. The shares depend only on
// (plan, tuning, GOMAXPROCS), never on a clock, so a seeded run replays.
//
// Shards are capacity-capped views over one shared row-major backing array
// (sparse.RowShards), not per-worker copies.
func BuildWorkerConfs(plat Platform, plan Plan, train *sparse.COO, tuning Tuning) ([]ps.WorkerConf, error) {
	budget := tuning.hostCap(len(plat.Workers))
	engines := make([]mf.Engine, len(plat.Workers))
	rates := make([]float64, len(plat.Workers))
	for i, w := range plat.Workers {
		engines[i] = EngineFor(w.Device, budget)
		rates[i] = float64(engineThreads(engines[i]))
	}
	shares := plan.Partition
	if !plan.SharesForced {
		var err error
		if shares, err = partition.DP0(rates); err != nil {
			return nil, err
		}
	}
	slices, shards, err := sparse.RowShards(train, shares)
	if err != nil {
		return nil, err
	}
	confs := make([]ps.WorkerConf, len(slices))
	for i, sl := range slices {
		confs[i] = ps.WorkerConf{
			Name:   plat.Workers[i].Name(),
			Engine: engines[i],
			Shard:  shards[i],
			RowLo:  sl.Lo, RowHi: sl.Hi,
			Weight: shares[i],
		}
	}
	return confs, nil
}

// EngineFor picks the execution engine matching a device's character:
// CPUs run the FPSGD block-scheduled kernel, GPUs the cuMF_SGD-style
// batched kernel. budget (≥1) is the worker's core budget: a GPU's groups
// fill it, a CPU's threads stop at the device's own thread count.
func EngineFor(d *device.Device, budget int) mf.Engine {
	switch d.Kind {
	case device.GPU:
		return &mf.Batched{Groups: budget, BatchSize: 1 << 14}
	default:
		return &mf.FPSGD{Threads: max(1, min(d.Threads, budget))}
	}
}

// engineThreads is the host thread count an engine from EngineFor runs.
func engineThreads(e mf.Engine) int {
	switch e := e.(type) {
	case *mf.Batched:
		return max(1, e.Groups)
	case *mf.FPSGD:
		return max(1, e.Threads)
	default:
		return 1
	}
}
