// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 4), plus ablations of the design decisions called
// out in DESIGN.md. Each benchmark regenerates its experiment and reports
// the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reprints the paper's results; `cmd/hccmf-bench` renders the full tables.
package hccmf_test

import (
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/experiments"
	"hccmf/internal/kernelbench"
	"hccmf/internal/partition"
	"hccmf/internal/related"
)

// --- Hot-path kernel micro-benchmarks (shared with hccmf-bench -json) ---
//
// The workloads live in internal/kernelbench so that `hccmf-bench -json`
// reruns exactly these benchmarks via testing.Benchmark; the numbers in
// BENCH_*.json and a local `go test -bench` run are directly comparable.
// Each reports updates/s, ns/update and allocs/op.

func BenchmarkUpdateOne(b *testing.B)        { kernelbench.UpdateOne(b) }
func BenchmarkFPSGDEpoch(b *testing.B)       { kernelbench.FPSGDEpoch(b) }
func BenchmarkBatchedEpoch(b *testing.B)     { kernelbench.BatchedEpoch(b) }
func BenchmarkHogwildEpoch(b *testing.B)     { kernelbench.HogwildEpoch(b) }
func BenchmarkRMSEParallel(b *testing.B)     { kernelbench.RMSEParallel(b) }
func BenchmarkBuildWorkerConfs(b *testing.B) { kernelbench.BuildWorkerConfs(b) }

// --- Ingestion micro-benchmarks (the ingest/v1 group of -json reports) ---
//
// Each parallel parser is paired with its serial reference so the
// allocation-elimination speedup is measurable from one run; reported
// metrics are input MB/s and parsed entries/s.

func BenchmarkIngestReadText(b *testing.B)         { kernelbench.IngestReadText(b) }
func BenchmarkIngestReadTextSerial(b *testing.B)   { kernelbench.IngestReadTextSerial(b) }
func BenchmarkIngestReadMovieLensCSV(b *testing.B) { kernelbench.IngestReadMovieLensCSV(b) }
func BenchmarkIngestReadMovieLensCSVSerial(b *testing.B) {
	kernelbench.IngestReadMovieLensCSVSerial(b)
}
func BenchmarkIngestReadBinary(b *testing.B)       { kernelbench.IngestReadBinary(b) }
func BenchmarkIngestReadBinarySerial(b *testing.B) { kernelbench.IngestReadBinarySerial(b) }
func BenchmarkIngestSortByRow(b *testing.B)        { kernelbench.IngestSortByRow(b) }
func BenchmarkIngestWriteBinary(b *testing.B)      { kernelbench.IngestWriteBinary(b) }

// --- Adaptive scheduling (the schedule/v1 group of -json reports) ---
//
// The straggler pair trains the same throttled 4-worker cluster with the
// static split and with epoch-boundary rebalancing; adaptive must win.

func BenchmarkScheduleResolveStep(b *testing.B)       { kernelbench.ResolveStep(b) }
func BenchmarkScheduleStragglerStatic(b *testing.B)   { kernelbench.StragglerStatic(b) }
func BenchmarkScheduleStragglerAdaptive(b *testing.B) { kernelbench.StragglerAdaptive(b) }

// BenchmarkFigure3a regenerates the motivation study: single-processor
// times versus good and bad collaborations on Netflix. Reported metrics:
// the 6242-2080S collaboration's time and its ratio to the V100's.
func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		combo := r.Find("6242-2080S").TimeSec
		v100 := r.Find("Tesla V100").TimeSec
		b.ReportMetric(combo, "combo-s")
		b.ReportMetric(combo/v100, "combo/v100")
	}
}

// BenchmarkFigure3b reports the platform economics: the 6242-2080S combo's
// price as a fraction of the V100's (the paper's "less than 1/3" claim).
func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Find("6242-2080S").PriceUSD, "combo-$")
		b.ReportMetric(r.Find("6242-2080S").PriceUSD/r.Find("Tesla V100").PriceUSD, "price-ratio")
	}
}

// BenchmarkTable2 regenerates the IW-vs-DP0 memory bandwidth table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[2].DP0GBs, "2080-dp0-GBs")
		b.ReportMetric(r.Rows[2].DP0GBs/r.Rows[2].IWGBs, "2080-dp0/iw")
	}
}

// BenchmarkFigure7Convergence really trains HCC-MF, FPSGD and cuMF_SGD on
// scaled Netflix/R1/R2 instances (Figure 7 a–c). Reported: final RMSEs on
// Netflix.
func BenchmarkFigure7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(0.001, 20, 8, 11)
		if err != nil {
			b.Fatal(err)
		}
		c := r.CurvesFor("netflix")
		b.ReportMetric(c.HCC.Final(), "hcc-rmse")
		b.ReportMetric(c.FPSGD.Final(), "fpsgd-rmse")
		b.ReportMetric(c.CuMF.Final(), "cumf-rmse")
	}
}

// BenchmarkFigure7Speed reports the time-to-target speedups of Figure 7
// (d–f): HCC-MF versus cuMF_SGD and FPSGD on R2 (the paper's 2.9x / 3.1x).
func BenchmarkFigure7Speed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(0.001, 20, 8, 11)
		if err != nil {
			b.Fatal(err)
		}
		c := r.CurvesFor("r2")
		b.ReportMetric(c.SpeedupVsCuMF, "r2-vs-cumf-x")
		b.ReportMetric(c.SpeedupVsFPSGD, "r2-vs-fpsgd-x")
	}
}

// BenchmarkTable4 regenerates the computing-power/utilization table.
// Reported: the four utilization percentages.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.Utilization*100, row.Dataset+"-util%")
		}
	}
}

// BenchmarkFigure8 regenerates the partition-strategy study. Reported: the
// DP1-over-DP0 saving on Netflix/4w and the DP2-over-DP1 saving on R1*/4w.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		nf := r.Panel("netflix", 4)
		dp1Save := 1 - nf.Bar(partition.DP1Strategy).Total/nf.Bar(partition.DP0Strategy).Total
		r1 := r.Panel("r1star", 4)
		dp2Save := 1 - r1.Bar(partition.DP2Strategy).Total/r1.Bar(partition.DP1Strategy).Total
		b.ReportMetric(dp1Save*100, "netflix-dp1-save%")
		b.ReportMetric(dp2Save*100, "r1star-dp2-save%")
	}
}

// BenchmarkTable5 regenerates the communication-time table. Reported: the
// COMM Q-only and half-Q speedups on Netflix and the COMM/COMM-P gap.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cell("COMM", "Q", "netflix").Speedup, "netflix-q-x")
		b.ReportMetric(r.Cell("COMM", "half-Q", "netflix").Speedup, "netflix-halfq-x")
		gap := r.Cell("COMM-P", "P&Q", "netflix").TimeSec / r.Cell("COMM", "P&Q", "netflix").TimeSec
		b.ReportMetric(gap, "commp/comm")
	}
}

// BenchmarkFigure9 regenerates the scaling study. Reported: full-platform
// computing power on Netflix and the last worker's marginal contribution.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		s := r.SeriesFor("netflix")
		last := s.Steps[len(s.Steps)-1]
		b.ReportMetric(last.HCCPower/1e6, "netflix-Mups")
		b.ReportMetric(last.Contribution*100, "last-contrib%")
	}
}

// BenchmarkTable6 regenerates the ML-20m limitation study. Reported: the
// second GPU's speedup (the paper's disappointing 1.24x).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
		single := r.Row("HCC", "2080S").Cost
		double := r.Row("HCC", "2080S-2080").Cost
		b.ReportMetric(single/double, "2nd-gpu-x")
	}
}

// BenchmarkRelatedWork quantifies the Section 5 comparisons: DSGD's
// heterogeneity penalty and NOMAD's message-granularity gap.
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RelatedWork()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HeterogeneityPenalty, "dsgd-penalty-x")
		b.ReportMetric(r.Granularity, "nomad-msg-x")
	}
}

// --- Ablations of DESIGN.md's called-out decisions ---

// BenchmarkAblationClock compares the pure-analytic cost model's epoch
// estimate against the discrete-event simulation — the gap is what
// execution-driven simulation buys (contention, queueing, pipeline
// effects the closed form misses).
func BenchmarkAblationClock(b *testing.B) {
	plat := core.PaperPlatformHetero()
	for i := 0; i < b.N; i++ {
		for _, spec := range []dataset.Spec{dataset.Netflix, dataset.YahooR1} {
			plan, err := core.PlanRun(plat, spec, core.PlanOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.SimulateRun(plat, spec, plan, experiments.Epochs)
			if err != nil {
				b.Fatal(err)
			}
			analytic := plan.Estimate.Total * float64(experiments.Epochs)
			b.ReportMetric(sim.TotalTime/analytic, spec.Name+"-des/model")
		}
	}
}

// BenchmarkAblationLambda sweeps the λ threshold that flips DP1 into DP2
// on the sync-heavy R1* (synchronous transfers). Reported: the 20-epoch
// time at each λ; the paper's λ=10 must not be beaten badly by either
// extreme.
func BenchmarkAblationLambda(b *testing.B) {
	plat := core.PaperPlatformHetero()
	syncOnly := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	for i := 0; i < b.N; i++ {
		for _, lambda := range []float64{1, 10, 1000} {
			plan, err := core.PlanRun(plat, dataset.YahooR1Star,
				core.PlanOptions{Lambda: lambda, ForceStrategy: &syncOnly})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.SimulateRun(plat, dataset.YahooR1Star, plan, experiments.Epochs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sim.TotalTime, plan.PartitionStrategy.String()+"-λ"+lambdaLabel(lambda)+"-s")
		}
	}
}

func lambdaLabel(l float64) string {
	switch {
	case l <= 1:
		return "1"
	case l <= 10:
		return "10"
	default:
		return "1000"
	}
}

// BenchmarkAblationStreams sweeps Strategy 3's pipeline depth on the
// comm-bound ML-20m shape: 1 (synchronous) to 8 streams.
func BenchmarkAblationStreams(b *testing.B) {
	plat := core.PaperPlatformHetero().FirstWorkers(3)
	for i := 0; i < b.N; i++ {
		for _, streams := range []int{1, 2, 4, 8} {
			s := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: streams}
			plan, err := core.PlanRun(plat, dataset.MovieLens20M,
				core.PlanOptions{ForceStrategy: &s})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.SimulateRun(plat, dataset.MovieLens20M, plan, experiments.Epochs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sim.TotalTime, "streams"+itoa(streams)+"-s")
		}
	}
}

// BenchmarkAblationStrategyChoice compares the planner's automatic
// strategy selection against the naive baseline across all presets: the
// planner must never lose.
func BenchmarkAblationStrategyChoice(b *testing.B) {
	plat := core.PaperPlatformHetero()
	naive := comm.Strategy{Encoding: comm.FP32, Streams: 1}
	for i := 0; i < b.N; i++ {
		for _, spec := range []dataset.Spec{dataset.Netflix, dataset.YahooR1, dataset.MovieLens20M} {
			auto, err := hccTotal(plat, spec, core.PlanOptions{})
			if err != nil {
				b.Fatal(err)
			}
			base, err := hccTotal(plat, spec, core.PlanOptions{ForceStrategy: &naive})
			if err != nil {
				b.Fatal(err)
			}
			if auto >= base {
				b.Fatalf("%s: planner (%v) lost to naive (%v)", spec.Name, auto, base)
			}
			b.ReportMetric(base/auto, spec.Name+"-x")
		}
	}
}

func hccTotal(plat core.Platform, spec dataset.Spec, opts core.PlanOptions) (float64, error) {
	plan, err := core.PlanRun(plat, spec, opts)
	if err != nil {
		return 0, err
	}
	sim, err := core.SimulateRun(plat, spec, plan, experiments.Epochs)
	if err != nil {
		return 0, err
	}
	return sim.TotalTime, nil
}

// BenchmarkAblationGrid quantifies Section 3.3's grid choice: the
// exclusive block grid's per-epoch feature traffic versus the row grid's
// Q-only traffic on the Netflix shape, per worker count.
func BenchmarkAblationGrid(b *testing.B) {
	const m, n, k = 480190, 17771, 128
	for i := 0; i < b.N; i++ {
		for _, p := range []int{2, 4} {
			grid, err := related.BlockGridTraffic(m, n, k, p+1)
			if err != nil {
				b.Fatal(err)
			}
			row, err := related.RowGridQOnlyTraffic(n, k, p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(grid)/float64(row), "p"+itoa(p)+"-blockgrid-x")
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}
