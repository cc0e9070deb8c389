package kernelbench

import (
	"testing"
	"time"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/ps"
	"hccmf/internal/schedule"
	"hccmf/internal/sparse"
)

// ScheduleSchema tags the adaptive-scheduling benchmark group embedded in
// the report (the Schedule field). The group's headline comparison is
// StragglerStatic vs StragglerAdaptive: the same cluster with one slow
// worker, trained with the planner's static split and with epoch-boundary
// rebalancing. Adaptive must beat static — that gap is the feature, and
// diffing it across PRs catches a scheduler that silently stops firing.
const ScheduleSchema = "hccmf-bench/schedule/v1"

// Schedule benchmark workload: a small 4-worker cluster where worker 0 is
// throttled to simulate a slow device. The throttle is proportional to the
// worker's shard size, so re-sharding away from the straggler genuinely
// shortens the epoch barrier — exactly the heterogeneous-device effect the
// rebalancer exists for.
const (
	schedRows   = 400
	schedCols   = 200
	schedNNZ    = 20_000
	schedK      = 8
	schedEpochs = 10
	// stragglerPerEntry is the straggler's simulated per-entry cost; at the
	// initial quarter share (~5k entries) it dominates the epoch by ~100×
	// over the un-throttled workers' real compute.
	stragglerPerEntry = 2 * time.Microsecond
)

// throttledEngine wraps an engine with a sleep proportional to the shard
// it was asked to train, simulating a device whose throughput is a fixed
// factor below the rest of the platform.
type throttledEngine struct {
	inner    mf.Engine
	perEntry time.Duration
}

func (e throttledEngine) Name() string { return "throttled+" + e.inner.Name() }

func (e throttledEngine) Epoch(f *mf.Factors, train *sparse.COO, h mf.HyperParams) {
	e.inner.Epoch(f, train, h)
	time.Sleep(time.Duration(len(train.Entries)) * e.perEntry)
}

// scheduleProblem builds the fixed straggler cluster. Worker 0 carries the
// throttled engine; the initial split is the equal one a rate-blind
// planner would cut.
func scheduleProblem(b *testing.B, adaptive bool) *ps.Cluster {
	b.Helper()
	rng := sparse.NewRand(5)
	full := sparse.NewCOO(schedRows, schedCols, schedNNZ)
	for i := 0; i < schedNNZ; i++ {
		full.Add(int32(rng.Intn(schedRows)), int32(rng.Intn(schedCols)), 1+4*rng.Float32())
	}
	weights := []float64{0.25, 0.25, 0.25, 0.25}
	// Only the cut is taken from RowShards; each shard gathers its entries
	// in generation order, so every worker trains the same entry stream.
	slices, _, err := sparse.RowShards(full, weights)
	if err != nil {
		b.Fatal(err)
	}
	confs := make([]ps.WorkerConf, len(slices))
	for i, sl := range slices {
		shard := sparse.NewCOO(schedRows, schedCols, int(sl.NNZ))
		for _, e := range full.Entries {
			if int(e.U) >= sl.Lo && int(e.U) < sl.Hi {
				shard.Entries = append(shard.Entries, e)
			}
		}
		var engine mf.Engine = mf.Serial{}
		if i == 0 {
			engine = throttledEngine{inner: mf.Serial{}, perEntry: stragglerPerEntry}
		}
		confs[i] = ps.WorkerConf{
			Name:   string(rune('a'+i)) + "-worker",
			Engine: engine,
			Shard:  shard,
			RowLo:  sl.Lo, RowHi: sl.Hi,
			Weight: weights[i],
		}
	}
	cfg := ps.Config{
		M: schedRows, N: schedCols, K: schedK,
		Hyper:      mf.HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005},
		Transport:  comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}),
		Strategy:   comm.Strategy{Encoding: comm.FP32, Streams: 1},
		MeanRating: full.MeanRating(),
		Seed:       7,
		// Both modes carry the observer so the span overhead is symmetric;
		// only the adaptive one acts on the measurements.
		Obs: obs.NewObserver(0, nil),
	}
	if adaptive {
		cfg.Schedule = schedule.Config{
			Policy:     schedule.Throughput,
			Hysteresis: 0.10,
			MinEpochs:  1,
			MinShare:   0.02,
		}
	}
	c, err := ps.New(cfg, confs)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func stragglerBench(b *testing.B, adaptive bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The cluster is rebuilt per op: re-sharding mutates the assignment,
		// and each op must start from the same static split.
		b.StopTimer()
		c := scheduleProblem(b, adaptive)
		b.StartTimer()
		if err := c.Train(schedEpochs, nil); err != nil {
			b.Fatal(err)
		}
		if adaptive && len(c.Rebalances()) == 0 {
			b.Fatal("adaptive straggler run performed no rebalances")
		}
	}
	ReportUpdates(b, schedNNZ*schedEpochs)
}

// StragglerStatic trains the straggler cluster on the planner's static
// split for the whole run — the paper's one-shot calibration behaviour.
func StragglerStatic(b *testing.B) { stragglerBench(b, false) }

// StragglerAdaptive trains the same cluster with epoch-boundary
// rebalancing: the re-solve moves load off the throttled worker as soon as
// the measured gain clears hysteresis.
func StragglerAdaptive(b *testing.B) { stragglerBench(b, true) }

// ResolveStep benchmarks the pure re-solve on a 4-worker measurement — the
// per-barrier cost every adaptive epoch pays even when hysteresis keeps
// the split.
func ResolveStep(b *testing.B) {
	shares := []float64{0.25, 0.25, 0.25, 0.25}
	seconds := []float64{0.080, 0.021, 0.019, 0.020}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := schedule.Resolve(shares, seconds); err != nil {
			b.Fatal(err)
		}
	}
}

// ScheduleSuite lists the scheduling benchmarks in report order.
func ScheduleSuite() []Bench {
	return []Bench{
		{"ResolveStep", ResolveStep},
		{"StragglerStatic", StragglerStatic},
		{"StragglerAdaptive", StragglerAdaptive},
	}
}

// CollectSchedule runs the scheduling group count times per benchmark and
// aggregates the means, mirroring Collect.
func CollectSchedule(count int) []Result {
	if count < 1 {
		count = 1
	}
	var out []Result
	for _, bm := range ScheduleSuite() {
		out = append(out, collectOne(bm, count))
	}
	return out
}
