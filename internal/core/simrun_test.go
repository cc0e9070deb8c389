package core

import (
	"math"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/partition"
	"hccmf/internal/trace"
)

func simulate(t *testing.T, plat Platform, spec dataset.Spec, opts PlanOptions, epochs int) (*SimResult, Plan) {
	t.Helper()
	plan, err := PlanRun(plat, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateRun(plat, spec, plan, epochs)
	if err != nil {
		t.Fatal(err)
	}
	return sim, plan
}

func TestSimulateDeterministic(t *testing.T) {
	a, _ := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 5)
	b, _ := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 5)
	if a.TotalTime != b.TotalTime {
		t.Fatalf("nondeterministic simulation: %v vs %v", a.TotalTime, b.TotalTime)
	}
	for i := range a.EpochTimes {
		if a.EpochTimes[i] != b.EpochTimes[i] {
			t.Fatal("epoch times differ between identical runs")
		}
	}
}

func TestSimulateEpochTimesSumToTotal(t *testing.T) {
	sim, _ := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 20)
	if len(sim.EpochTimes) != 20 {
		t.Fatalf("epoch times = %d", len(sim.EpochTimes))
	}
	var sum float64
	for _, e := range sim.EpochTimes {
		if e <= 0 {
			t.Fatalf("non-positive epoch time %v", e)
		}
		sum += e
	}
	if math.Abs(sum-sim.TotalTime) > 1e-9*sim.TotalTime {
		t.Fatalf("epoch times sum %v != total %v", sum, sim.TotalTime)
	}
}

func TestSimulateDP1BeatsDP0(t *testing.T) {
	// Figure 8(a–d): on Netflix and R2 the DP1 partition ends the epoch
	// earlier than DP0.
	for _, spec := range []dataset.Spec{dataset.Netflix, dataset.YahooR2} {
		dp0 := partition.DP0Strategy
		s0, _ := simulate(t, PaperPlatformHetero(), spec, PlanOptions{ForcePartition: &dp0}, 20)
		s1, _ := simulate(t, PaperPlatformHetero(), spec, PlanOptions{}, 20)
		if s1.TotalTime >= s0.TotalTime {
			t.Fatalf("%s: DP1 total %v not better than DP0 %v", spec.Name, s1.TotalTime, s0.TotalTime)
		}
		saving := 1 - s1.TotalTime/s0.TotalTime
		if saving < 0.02 || saving > 0.3 {
			t.Fatalf("%s: DP1 saving %.1f%% outside the paper's ~10%% band", spec.Name, saving*100)
		}
	}
}

func TestSimulateDP2BeatsDP1OnSyncHeavy(t *testing.T) {
	// Figure 8(e–f): with synchronous transfers on R1*, DP2's staggered
	// finish times beat DP1's balanced ones.
	sync := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	dp1 := partition.DP1Strategy
	s1, p1 := simulate(t, PaperPlatformHetero(), dataset.YahooR1Star,
		PlanOptions{ForceStrategy: &sync, ForcePartition: &dp1}, 20)
	s2, p2 := simulate(t, PaperPlatformHetero(), dataset.YahooR1Star,
		PlanOptions{ForceStrategy: &sync}, 20)
	if p1.PartitionStrategy != partition.DP1Strategy || p2.PartitionStrategy != partition.DP2Strategy {
		t.Fatalf("strategies = %v, %v", p1.PartitionStrategy, p2.PartitionStrategy)
	}
	if s2.TotalTime >= s1.TotalTime {
		t.Fatalf("DP2 total %v not better than DP1 %v", s2.TotalTime, s1.TotalTime)
	}
}

func TestSimulateMoreWorkersFaster(t *testing.T) {
	// Figure 9: computing power grows as workers are added.
	plat := PaperPlatformHetero()
	prev := math.Inf(1)
	for n := 1; n <= 4; n++ {
		sim, _ := simulate(t, plat.FirstWorkers(n), dataset.Netflix, PlanOptions{}, 20)
		if sim.TotalTime >= prev {
			t.Fatalf("adding worker %d did not help: %v ≥ %v", n, sim.TotalTime, prev)
		}
		prev = sim.TotalTime
	}
}

func TestSimulateSingleWorkerMatchesStandalone(t *testing.T) {
	// Table 6: an HCC run with one worker costs about the same as the
	// standalone baseline (communication is tiny on Netflix shapes).
	d := device.RTX2080Super()
	sim, _ := simulate(t, SinglePlatform(d), dataset.Netflix, PlanOptions{}, 20)
	standalone := SimulateStandalone(d, dataset.Netflix, 20)
	if sim.TotalTime < standalone {
		t.Fatalf("collaborative single worker faster than standalone: %v < %v", sim.TotalTime, standalone)
	}
	if sim.TotalTime > standalone*1.10 {
		t.Fatalf("single-worker overhead too large: %v vs %v", sim.TotalTime, standalone)
	}
}

func TestSimulateTraceConsistent(t *testing.T) {
	sim, plan := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 20)
	rows := trace.Rows(sim.Events)
	if len(rows) != len(plan.Platform.Workers) {
		t.Fatalf("trace rows = %d, workers = %d", len(rows), len(plan.Platform.Workers))
	}
	for _, r := range rows {
		if r.Compute <= 0 {
			t.Fatalf("worker %s has no compute time", r.Worker)
		}
		if r.Pull <= 0 || r.Push <= 0 || r.Sync <= 0 {
			t.Fatalf("worker %s missing phases: %+v", r.Worker, r)
		}
		// Per-worker cumulative total cannot exceed the run duration.
		if r.Total() > sim.TotalTime*1.0001 {
			t.Fatalf("worker %s total %v exceeds run %v", r.Worker, r.Total(), sim.TotalTime)
		}
	}
	// Compute dominates on Netflix (the paper's whole premise).
	var compute, pull float64
	for _, r := range rows {
		compute += r.Compute
		pull += r.Pull
	}
	if compute < 10*pull {
		t.Fatal("netflix compute should dwarf communication")
	}
}

func TestSimulateAsyncStreamsReduceExposedComm(t *testing.T) {
	// Strategy 3 on a comm-heavy problem: async streams must shorten the
	// run versus the same plan with synchronous transfers.
	syncStrat := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	asyncStrat := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 4}
	plat := PaperPlatformHetero().FirstWorkers(3) // copy-engine workers only
	s1, _ := simulate(t, plat, dataset.MovieLens20M, PlanOptions{ForceStrategy: &syncStrat}, 20)
	s4, _ := simulate(t, plat, dataset.MovieLens20M, PlanOptions{ForceStrategy: &asyncStrat}, 20)
	if s4.TotalTime >= s1.TotalTime {
		t.Fatalf("async %v not faster than sync %v", s4.TotalTime, s1.TotalTime)
	}
}

func TestSimulateValidation(t *testing.T) {
	plan, err := PlanRun(PaperPlatformHetero(), dataset.Netflix, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateRun(PaperPlatformHetero(), dataset.Netflix, plan, 0); err == nil {
		t.Fatal("zero epochs accepted")
	}
	bad := plan
	bad.Partition = []float64{1}
	bad.Platform = Platform{}
	if _, err := SimulateRun(PaperPlatformHetero(), dataset.Netflix, bad, 5); err == nil {
		t.Fatal("mismatched partition accepted")
	}
}

func TestSimulateStandaloneFormula(t *testing.T) {
	d := device.RTX2080()
	got := SimulateStandalone(d, dataset.Netflix, 20)
	want := float64(dataset.Netflix.NNZ) * 20 / d.UpdateRate("netflix")
	if got != want {
		t.Fatalf("standalone = %v, want %v", got, want)
	}
	// Paper: modified cuMF_SGD trains 20 Netflix epochs in ~2.25s on 2080.
	if got < 1.8 || got > 2.6 {
		t.Fatalf("2080 standalone %vs outside the paper's ~2.2s", got)
	}
}
