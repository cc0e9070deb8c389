package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/mf"
)

func TestRunSimulationOnly(t *testing.T) {
	res, err := Run(RunConfig{
		Spec:     dataset.Netflix,
		Platform: PaperPlatformOverall(),
		Epochs:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve != nil {
		t.Fatal("simulation-only run produced a convergence curve")
	}
	// Table 4 headline: Netflix utilization in the ~86% band.
	if res.Utilization < 0.80 || res.Utilization > 0.95 {
		t.Fatalf("netflix utilization = %v, want paper's ~0.86 band", res.Utilization)
	}
	if res.Power <= 0 || res.IdealPower <= res.Power {
		t.Fatalf("power accounting wrong: %v / %v", res.Power, res.IdealPower)
	}
}

func TestRunWithRealTraining(t *testing.T) {
	res, err := Run(RunConfig{
		Spec:             dataset.Netflix,
		Platform:         PaperPlatformOverall(),
		Epochs:           15,
		MaterializeScale: 0.002,
		RealK:            8,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve == nil || len(res.Curve.Points) != 16 { // epoch 0 + 15
		t.Fatalf("curve missing or wrong length: %+v", res.Curve)
	}
	first, last := res.Curve.Points[0], res.Curve.Points[len(res.Curve.Points)-1]
	if last.RMSE >= first.RMSE {
		t.Fatalf("real training did not converge: %v → %v", first.RMSE, last.RMSE)
	}
	if res.CommStats.BusBytes <= 0 {
		t.Fatal("no communication accounted")
	}
	// Time axis must be the simulated clock, monotonically increasing.
	for i := 1; i < len(res.Curve.Points); i++ {
		if res.Curve.Points[i].Time <= res.Curve.Points[i-1].Time {
			t.Fatal("curve time axis not increasing")
		}
	}
	if res.FinalRMSE != last.RMSE {
		t.Fatal("FinalRMSE mismatch")
	}
	// The real cut is recorded: one contiguous row range per worker, the
	// shares summing to 1.
	if len(res.Shards) != len(res.Plan.Platform.Workers) {
		t.Fatalf("%d real shards for %d workers", len(res.Shards), len(res.Plan.Platform.Workers))
	}
	sum, lo := 0.0, 0
	for _, sh := range res.Shards {
		if sh.RowLo != lo || sh.RowHi <= sh.RowLo || sh.Threads < 1 {
			t.Fatalf("bad real shard %v after row %d", sh, lo)
		}
		lo = sh.RowHi
		sum += sh.Share
	}
	if lo != res.TrainedData.Train.Rows || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("real shards end at row %d of %d, shares sum to %v", lo, res.TrainedData.Train.Rows, sum)
	}
}

func TestRunRealTrainingTransposedDataset(t *testing.T) {
	// A wider-than-tall dataset exercises the transpose path end to end.
	wide := dataset.Spec{
		Name: "wide", M: 300, N: 4000, NNZ: 60000,
		RatingMin: 1, RatingMax: 5, RatingStep: 0.5, Rank: 8,
		NoiseStd: 0.3, ZipfTheta: 0.5,
		Params: dataset.Params{Gamma: 0.01, Lambda1: 0.01, Lambda2: 0.01},
	}
	res, err := Run(RunConfig{
		Spec:             wide,
		Platform:         PaperPlatformOverall().FirstWorkers(2),
		Epochs:           10,
		MaterializeScale: 1,
		RealK:            8,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Transposed {
		t.Fatal("wide dataset not transposed")
	}
	if res.Curve.Final() >= res.Curve.Points[0].RMSE {
		t.Fatal("transposed training did not converge")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Spec: dataset.Netflix, Platform: PaperPlatformOverall()}); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := Run(RunConfig{Spec: dataset.Netflix, Platform: Platform{}, Epochs: 5}); err == nil {
		t.Fatal("invalid platform accepted")
	}
	// MaterializeScale outside [0, 1] used to be silently ignored (> 1
	// trained full-size; Spec.Scaled would panic on it elsewhere). It must
	// be a descriptive error now.
	for _, scale := range []float64{1.5, 2, -0.1} {
		_, err := Run(RunConfig{
			Spec: dataset.Netflix, Platform: PaperPlatformOverall(),
			Epochs: 5, MaterializeScale: scale,
		})
		if err == nil {
			t.Fatalf("MaterializeScale %v accepted", scale)
		}
		if !strings.Contains(err.Error(), "MaterializeScale") {
			t.Fatalf("MaterializeScale %v: undescriptive error %v", scale, err)
		}
	}
	// Out-of-range fault rates must be a descriptive error at Run, not a
	// panic from the transport wrapper deep inside runReal.
	for _, rate := range []float64{1.5, -0.2} {
		_, err := Run(RunConfig{
			Spec: dataset.Netflix, Platform: PaperPlatformOverall(),
			Epochs: 5, MaterializeScale: 0.002,
			Resilience: Resilience{Fault: comm.FaultSpec{Transient: rate}},
		})
		if err == nil || !strings.Contains(err.Error(), "fault rate") {
			t.Fatalf("fault rate %v: want descriptive error, got %v", rate, err)
		}
	}
}

// A run under seeded fault injection with retries must complete with no
// run-level error, account its retries, and converge like the fault-free
// run.
func TestRunSurvivesInjectedFaults(t *testing.T) {
	run := func(rate float64) *Result {
		res, err := Run(RunConfig{
			Spec:             dataset.Netflix,
			Platform:         PaperPlatformOverall(),
			Epochs:           10,
			MaterializeScale: 0.002,
			RealK:            8,
			Seed:             3,
			Resilience: Resilience{
				Fault:          comm.FaultSpec{Transient: rate, Seed: 77},
				Retry:          comm.RetryPolicy{Attempts: 10},
				EvictOnFailure: true,
			},
		})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		return res
	}
	base := run(0)
	faulted := run(0.10)
	if faulted.CommStats.Retries == 0 {
		t.Fatal("no retries accounted at 10% fault rate")
	}
	if len(faulted.Evictions) != 0 {
		t.Fatalf("unexpected evictions: %+v", faulted.Evictions)
	}
	if diff := math.Abs(faulted.FinalRMSE-base.FinalRMSE) / base.FinalRMSE; diff > 0.02 {
		t.Fatalf("faulted RMSE %v vs fault-free %v (%.1f%% off)",
			faulted.FinalRMSE, base.FinalRMSE, diff*100)
	}
}

func TestEngineForMapping(t *testing.T) {
	if _, ok := EngineFor(device.RTX2080(), 1).(*mf.Batched); !ok {
		t.Fatal("GPU should map to the batched engine")
	}
	if _, ok := EngineFor(device.Xeon6242(24), 1).(*mf.FPSGD); !ok {
		t.Fatal("CPU should map to FPSGD")
	}
	// The budget caps a CPU's threads, and the device's own thread count
	// caps the budget.
	if fp := EngineFor(device.Xeon6242(24), 16).(*mf.FPSGD); fp.Threads != 16 {
		t.Fatalf("budget 16 not honoured: %d threads", fp.Threads)
	}
	if fp := EngineFor(device.Xeon6242(10), 16).(*mf.FPSGD); fp.Threads != 10 {
		t.Fatalf("10-thread CPU given %d threads", fp.Threads)
	}
	if bt := EngineFor(device.RTX2080(), 3).(*mf.Batched); bt.Groups != 3 {
		t.Fatalf("GPU given %d groups on a budget of 3", bt.Groups)
	}
}

func TestTuningDefaults(t *testing.T) {
	var z Tuning
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, 4} {
		if got, want := z.hostCap(workers), max(1, procs/workers); got != want {
			t.Fatalf("zero Tuning hostCap(%d) = %d, want %d", workers, got, want)
		}
	}
	if n := z.evalThreads(); n != procs {
		t.Fatalf("zero Tuning evalThreads = %d, want GOMAXPROCS %d", n, procs)
	}
	if n := (Tuning{HostCap: 3}).hostCap(4); n != 3 {
		t.Fatalf("explicit HostCap = %d, want 3", n)
	}
	if n := (Tuning{EvalThreads: 9}).evalThreads(); n != 9 {
		t.Fatalf("explicit EvalThreads = %d, want 9", n)
	}
}
