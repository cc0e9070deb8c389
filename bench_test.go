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
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/experiments"
	"hccmf/internal/kernelbench"
	"hccmf/internal/mf"
	"hccmf/internal/partition"
	"hccmf/internal/related"
	"hccmf/internal/sparse"
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

// BenchmarkEngineScaling runs the block-walk engines, FPSGD and Batched,
// at 1, 2 and NumCPU threads on two shapes: Q in L2 (kernelbench's
// 2000×1000 k32 matrix, a 125 KiB Q) and Q ≫ L2 (1M ratings over 20,000
// users and 26,000 items at k64, a 6.3 MiB Q). A warm-up epoch lays the
// shard out first, so each op is one walk. The scaling table in
// EXPERIMENTS.md is one `go test -bench EngineScaling` run.
func BenchmarkEngineScaling(b *testing.B) {
	shapes := []struct {
		name               string
		rows, cols, nnz, k int
	}{
		{"QinL2", kernelbench.Rows, kernelbench.Cols, kernelbench.NNZ, kernelbench.K},
		{"QoverL2", 20_000, 26_000, 1_000_000, 64},
	}
	threads := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		threads = append(threads, n)
	}
	engines := []struct {
		name string
		new  func(threads int) mf.Engine
	}{
		{"fpsgd", func(t int) mf.Engine { return &mf.FPSGD{Threads: t} }},
		{"batched", func(t int) mf.Engine { return &mf.Batched{Groups: t} }},
	}
	for _, sh := range shapes {
		rng := sparse.NewRand(1)
		m := sparse.NewCOO(sh.rows, sh.cols, sh.nnz)
		for i := 0; i < sh.nnz; i++ {
			m.Add(int32(rng.Intn(sh.rows)), int32(rng.Intn(sh.cols)), 1+4*rng.Float32())
		}
		for _, eng := range engines {
			for _, t := range threads {
				b.Run(sh.name+"/"+eng.name+"-"+strconv.Itoa(t), func(b *testing.B) {
					f := mf.NewFactorsInit(m.Rows, m.Cols, sh.k, m.MeanRating(), sparse.NewRand(2))
					e := eng.new(t)
					e.Epoch(f, m, kernelbench.Hyper)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Epoch(f, m, kernelbench.Hyper)
					}
					kernelbench.ReportUpdates(b, m.NNZ())
				})
			}
		}
	}
}

// BenchmarkDataPlane times the passes that move every rating before the
// first SGD update, on the data perfbench's workloads train on:
// dataset.Generate's Netflix@0.05 (train-cached, cut into two worker
// shards) and ML-20m@0.2 (train-wide-tcp, one worker). read is
// dataset.ReadRatingsFile with GOMAXPROCS parse workers on a text file of
// every generated rating, as train-wide-tcp reads its input (train-cached
// reads a binary file); split is SplitTrainTest, shards is RowShards,
// walk lays each shard out on the FPSGD/Batched block grid (side
// max(16, ⌈cols/TileCols(k)⌉) over the shard's row band, as mf.BlockWalk
// does), and tiles lays each shard out over mf.TileAxis with two item
// slices cut by rating count, as the async streams do. The generated ratings are Zipf-skewed, unlike
// sparse.BenchmarkBlockOrder's uniform input, so hot users' long runs of
// repeated cells show here.
func BenchmarkDataPlane(b *testing.B) {
	const k = 64
	for _, in := range []struct {
		name    string
		spec    dataset.Spec
		scale   float64
		workers int
	}{
		{"netflix0.05", dataset.Netflix, 0.05, 2},
		{"ml20m0.2", dataset.MovieLens20M, 0.2, 1},
	} {
		ds := dataset.MustGenerate(in.spec.MustScaled(in.scale), 1)
		train := ds.Train
		weights := make([]float64, in.workers)
		for i := range weights {
			weights[i] = 1
		}
		_, shards, err := sparse.RowShards(train, weights)
		if err != nil {
			b.Fatal(err)
		}
		text := filepath.Join(b.TempDir(), in.name+".txt")
		all := &sparse.COO{Rows: train.Rows, Cols: train.Cols,
			Entries: append(append([]sparse.Rating(nil), train.Entries...), ds.Test.Entries...)}
		if err := writeTextFile(text, all); err != nil {
			b.Fatal(err)
		}
		b.Run(in.name+"/read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ReadRatingsFile(text, runtime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/split", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := train.SplitTrainTest(sparse.NewRand(1), 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/shards", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sparse.RowShards(train, weights); err != nil {
					b.Fatal(err)
				}
			}
		})
		side := walkSide(train.Cols, k)
		counts := make([]int64, train.Cols)
		for _, e := range train.Entries {
			counts[e.I]++
		}
		half, cut := int64(train.NNZ()/2), 0
		for run := int64(0); run < half; cut++ {
			run += counts[cut]
		}
		tiles, _ := mf.TileAxis([]int{0, cut, train.Cols}, k)
		layouts := []struct {
			name string
			axes func(sh *sparse.COO) (rows, cols sparse.Axis)
		}{
			{"walk", func(sh *sparse.COO) (rows, cols sparse.Axis) { return walkAxes(sh, side) }},
			{"tiles", func(*sparse.COO) (rows, cols sparse.Axis) { return sparse.Axis{N: 1}, tiles }},
		}
		for _, l := range layouts {
			b.Run(in.name+"/"+l.name, func(b *testing.B) {
				src := make([][]sparse.Rating, len(shards))
				for j, sh := range shards {
					src[j] = append([]sparse.Rating(nil), sh.Entries...)
				}
				for i := 0; i < b.N; i++ {
					for j, sh := range shards {
						b.StopTimer()
						copy(sh.Entries, src[j])
						rows, cols := l.axes(sh)
						b.StartTimer()
						sparse.BlockOrder(sh.Entries, rows, cols)
					}
				}
			})
		}
	}
}

// walkSide is the FPSGD/Batched block grid side mf.BlockWalk uses at k:
// max(16, ⌈cols/TileCols(k)⌉).
func walkSide(cols, k int) int {
	tc := mf.TileCols(k)
	return max(16, (cols+tc-1)/tc)
}

// walkAxes cuts a row shard's band and its columns into the walk's grid,
// as mf.BlockWalk does.
func walkAxes(sh *sparse.COO, side int) (rows, cols sparse.Axis) {
	lo, hi := int(sh.Entries[0].U), int(sh.Entries[len(sh.Entries)-1].U)+1
	g := min(side, hi-lo)
	return sparse.EvenAxis(lo, hi, g), sparse.EvenAxis(0, sh.Cols, g)
}

// BenchmarkSweep times the rating sweep alone on the workloads' shapes:
// one-thread mf.TrainEntries at k = 64 over the first worker shard of
// dataset.Generate's Netflix@0.05 (cut in two, as train-cached does) and
// of ML-20m@0.2 (one worker, as train-wide-tcp), laid out in the block
// walk's order. Each op is one pass over the shard; ns/update is the
// sweep's cost per rating on whichever tier mf.Kernel reports, which the
// benchmark logs. The <input>_walk rows time one-thread FPSGD epochs over
// the same shard instead, the block walk that feeds the sweep one block of
// each of two lanes per stratum (the grid is laid before the timer
// starts). EXPERIMENTS.md ("The VEX rating sweeps", "Block-walk rows") has
// the tables.
func BenchmarkSweep(b *testing.B) {
	const k = 64
	b.Logf("rating sweeps: %s", mf.Kernel())
	for _, in := range []struct {
		name    string
		spec    dataset.Spec
		scale   float64
		workers int
	}{
		{"netflix0.05", dataset.Netflix, 0.05, 2},
		{"ml20m0.2", dataset.MovieLens20M, 0.2, 1},
	} {
		train := dataset.MustGenerate(in.spec.MustScaled(in.scale), 1).Train
		weights := make([]float64, in.workers)
		for i := range weights {
			weights[i] = 1
		}
		_, shards, err := sparse.RowShards(train, weights)
		if err != nil {
			b.Fatal(err)
		}
		sh := shards[0]
		rows, cols := walkAxes(sh, walkSide(train.Cols, k))
		sparse.BlockOrder(sh.Entries, rows, cols)
		b.Run(in.name, func(b *testing.B) {
			f := mf.NewFactorsInit(train.Rows, train.Cols, k, train.MeanRating(), sparse.NewRand(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mf.TrainEntries(f, sh.Entries, kernelbench.Hyper)
			}
			kernelbench.ReportUpdates(b, len(sh.Entries))
		})
		b.Run(in.name+"_walk", func(b *testing.B) {
			f := mf.NewFactorsInit(train.Rows, train.Cols, k, train.MeanRating(), sparse.NewRand(2))
			walk := &mf.FPSGD{Threads: 1}
			walk.Epoch(f, sh, kernelbench.Hyper)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk.Epoch(f, sh, kernelbench.Hyper)
			}
			kernelbench.ReportUpdates(b, len(sh.Entries))
		})
	}
}

// writeTextFile writes m to path in the text triple format.
func writeTextFile(path string, m *sparse.COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = dataset.WriteText(bw, m)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Ingestion micro-benchmarks (the ingest/v1 group of -json reports) ---
//
// Reported metrics are input MB/s and parsed entries/s.

func BenchmarkIngestReadText(b *testing.B)    { kernelbench.IngestReadText(b) }
func BenchmarkIngestReadBinary(b *testing.B)  { kernelbench.IngestReadBinary(b) }
func BenchmarkIngestSortByRow(b *testing.B)   { kernelbench.IngestSortByRow(b) }
func BenchmarkIngestWriteBinary(b *testing.B) { kernelbench.IngestWriteBinary(b) }

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
