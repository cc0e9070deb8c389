// Command hccmf-train trains an SGD-based matrix factorization model with
// the HCC-MF framework: it plans the run (grid, communication strategy,
// data partition) for the simulated multi-CPU/GPU platform and really
// trains on the data, reporting per-epoch RMSE against a held-out split
// and the simulated wall clock of the full-size problem.
//
// Usage:
//
//	hccmf-train -preset netflix -scale 0.002 -epochs 30 -k 16
//	hccmf-train -input ratings.txt -epochs 20
//	hccmf-train -preset netflix -scale 0.002 -connect 127.0.0.1:9770
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"hccmf/internal/comm"
	commnet "hccmf/internal/comm/net"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/recommend"
	"hccmf/internal/schedule"
	"hccmf/internal/sparse"
	"hccmf/internal/trace"
	"hccmf/internal/version"
)

func main() {
	preset := flag.String("preset", "netflix", "dataset preset (netflix, r1, r1star, r2, ml-20m)")
	input := flag.String("input", "", "train on a ratings file (text 'm n nnz' header + 'u i r' lines) instead of a preset")
	scale := flag.Float64("scale", 0.002, "materialisation scale for preset data (0<s≤1)")
	epochs := flag.Int("epochs", 20, "training epochs")
	k := flag.Int("k", 16, "latent dimension of the real training run")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 4, "number of platform workers (1-4)")
	decay := flag.Float64("decay", 0, "learning-rate decay β for γ_t = γ0/(1+β·t^1.5); 0 keeps the paper's constant rate")
	save := flag.String("save", "", "write the trained factor model to this file")
	recN := flag.Int("recommend", 0, "print top-N recommendations for a few sample users")
	ioWorkers := flag.Int("io-workers", runtime.GOMAXPROCS(0), "parser workers for -input loading; 1 selects the serial reference parser")
	faultRate := flag.Float64("fault-rate", 0, "inject transient transport failures with this per-transfer probability (chaos testing)")
	faultTrunc := flag.Float64("fault-trunc", 0, "inject payload truncation with this per-transfer probability")
	faultSeed := flag.Uint64("fault-seed", 42, "seed of the injected fault schedule")
	retries := flag.Int("retries", 0, "per-transfer attempt budget with capped exponential backoff; <2 disables retry")
	evict := flag.Bool("evict", false, "evict workers that exhaust the retry budget instead of aborting the run")
	transport := flag.String("transport", comm.KindShared,
		"communication transport: "+strings.Join(comm.Kinds(), ", ")+" ("+commnet.Kind+" needs -connect)")
	connect := flag.String("connect", "",
		"address of a running hccmf-ps parameter server (implies -transport "+commnet.Kind+")")
	netTimeout := flag.Duration("net-timeout", commnet.DefaultOpTimeout, "per-operation deadline for wire transports")
	metricsOut := flag.String("metrics-out", "", "write an hccmf-obs/v1 metrics JSON document to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON document (load in chrome://tracing or Perfetto) to this file")
	progress := flag.Bool("progress", false, "print a per-epoch progress line to stderr while training")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	rebalance := flag.Bool("rebalance", false, "adaptively re-shard the training data at epoch boundaries from observed per-worker throughput")
	rebHysteresis := flag.Float64("rebalance-hysteresis", 0, "predicted makespan gain a re-shard must exceed (0 uses the default, "+fmt.Sprintf("%.2f", schedule.DefaultHysteresis)+")")
	rebMinEpochs := flag.Int("rebalance-min-epochs", 0, "minimum epochs between re-shards (0 uses the default, "+fmt.Sprintf("%d", schedule.DefaultMinEpochs)+")")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-train", version.String())
		return
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hccmf-train: pprof:", err)
			}
		}()
	}

	var observer *obs.Observer
	if *metricsOut != "" || *traceOut != "" || *progress || *rebalance {
		// -rebalance needs per-worker phase timing, which rides on the
		// observer's clock; create one implicitly.
		observer = obs.NewObserver(0, nil)
	}

	var schedCfg schedule.Config
	if *rebalance {
		schedCfg = schedule.Config{
			Policy:     schedule.Throughput,
			Hysteresis: *rebHysteresis,
			MinEpochs:  *rebMinEpochs,
		}
	}

	plat := core.PaperPlatformOverall().FirstWorkers(*workers)

	var spec dataset.Spec
	var data *dataset.Dataset
	if *input != "" {
		m, err := loadFile(*input, *ioWorkers)
		if err != nil {
			fatal(err)
		}
		train, test, err := m.SplitTrainTest(sparse.NewRand(*seed), 0.1)
		if err != nil {
			fatal(err)
		}
		spec = dataset.Spec{
			Name: "file", M: m.Rows, N: m.Cols, NNZ: int64(m.NNZ()),
			Rank:   *k,
			Params: dataset.Params{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01},
		}
		data = &dataset.Dataset{Spec: spec, Train: train, Test: test}
	} else {
		s, err := dataset.Lookup(*preset)
		if err != nil {
			fatal(err)
		}
		spec = s
	}

	var lrSchedule mf.Schedule
	if *decay > 0 {
		lrSchedule = mf.InverseDecay{Gamma0: spec.Params.Gamma, Beta: float32(*decay)}
	}
	kind := *transport
	if *connect != "" {
		kind = commnet.Kind
	} else if kind == commnet.Kind {
		fatal(fmt.Errorf("-transport %s needs -connect with the hccmf-ps address", commnet.Kind))
	}
	res, err := core.Run(core.RunConfig{
		Spec:             spec,
		Platform:         plat,
		Epochs:           *epochs,
		Plan:             core.PlanOptions{},
		MaterializeScale: *scale,
		RealK:            *k,
		Data:             data,
		LRSchedule:       lrSchedule,
		Schedule:         schedCfg,
		Seed:             *seed,
		TransportSpec:    comm.Spec{Kind: kind, Addr: *connect, OpTimeout: *netTimeout},
		Obs:              observer,
		OnEpoch: func(epoch, total int, rmse, simSeconds float64) {
			if *progress {
				fmt.Fprintf(os.Stderr, "epoch %d/%d  rmse %.6f  sim %.3fs\n", epoch+1, total, rmse, simSeconds)
			}
		},
		Resilience: core.Resilience{
			Fault: comm.FaultSpec{
				Transient: *faultRate,
				Truncate:  *faultTrunc,
				Seed:      *faultSeed,
			},
			Retry: comm.RetryPolicy{
				Attempts:  *retries,
				BaseDelay: time.Millisecond,
				MaxDelay:  100 * time.Millisecond,
			},
			EvictOnFailure: *evict,
		},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("plan: %v\n", res.Plan)
	fmt.Printf("real shards: %s\n", formatRealShards(res.Shards))
	fmt.Printf("simulated full-size run: %.3fs for %d epochs (%.3g updates/s, %.0f%% of ideal)\n",
		res.Sim.TotalTime, *epochs, res.Power, res.Utilization*100)
	fmt.Println("\nconvergence (simulated time axis):")
	fmt.Printf("%6s %12s %10s\n", "epoch", "time(s)", "rmse")
	for _, p := range res.Curve.Points {
		fmt.Printf("%6d %12.4f %10.6f\n", p.Epoch, p.Time, p.RMSE)
	}
	fmt.Printf("\nfinal RMSE: %.6f\n", res.FinalRMSE)
	fmt.Printf("communication: %.1f MiB over the bus, %d copies, %d retries\n",
		float64(res.CommStats.BusBytes)/(1<<20), res.CommStats.Copies, res.CommStats.Retries)
	if res.CommStats.Frames > 0 {
		fmt.Printf("wire: %.1f MiB in %d frames, %d handshakes\n",
			float64(res.CommStats.WireBytes)/(1<<20), res.CommStats.Frames, res.CommStats.Handshakes)
	}
	for _, ev := range res.Evictions {
		fmt.Printf("evicted worker %s in epoch %d (rows [%d,%d) → %s): %v\n",
			ev.Worker, ev.Epoch, ev.RowLo, ev.RowHi, ev.InheritedBy, ev.Err)
	}
	if *rebalance {
		fmt.Printf("adaptive scheduling: %d re-shard(s)\n", len(res.Rebalances))
		for _, rb := range res.Rebalances {
			forced := ""
			if rb.Forced {
				forced = " (forced by eviction)"
			}
			fmt.Printf("  epoch %d: shares %s, predicted gain %.1f%%%s\n",
				rb.Epoch, formatShares(rb.Shares), rb.Gain*100, forced)
		}
	}
	fmt.Println("\nper-phase simulated time:")
	fmt.Print(trace.Format(trace.Rows(res.Sim.Events)))

	if *metricsOut != "" {
		if err := observer.WriteMetricsFile(*metricsOut); err != nil {
			fatal(err)
		}
		fmt.Printf("\nmetrics written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := observer.WriteTraceFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := mf.WriteFactors(f, res.Model); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nmodel saved to %s (%dx%d, k=%d)\n", *save, res.Model.M, res.Model.N, res.Model.K)
	}

	if *recN > 0 {
		rec, err := recommend.New(res.Model, res.Model.M, res.Model.N)
		if err != nil {
			fatal(err)
		}
		if err := rec.MarkSeen(res.TrainedData.Train); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop-%d recommendations for sample users", *recN)
		if res.Plan.Transposed {
			fmt.Print(" (note: problem was transposed; 'users' are the original items)")
		}
		fmt.Println()
		for u := int32(0); u < 3 && int(u) < res.Model.M; u++ {
			top, err := rec.TopN(u, *recN)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  user %d:", u)
			for _, it := range top {
				fmt.Printf(" %d(%.2f)", it.ID, it.Score)
			}
			fmt.Println()
		}
		hr, err := rec.HitRateAtN(res.TrainedData.Test, 10, 4)
		if err == nil {
			fmt.Printf("hit-rate@10 on held-out data: %.3f\n", hr)
		}
	}
}

func formatShares(shares []float64) string {
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("%.3f", s)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// formatRealShards renders the cut real execution trained, one
// "name rows [lo,hi) share% threadsT" entry per worker.
func formatRealShards(shards []core.RealShard) string {
	parts := make([]string, len(shards))
	for i, s := range shards {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}

func loadFile(path string, workers int) (*sparse.COO, error) {
	// The magic decides the format: binary decode errors (truncation,
	// corruption) propagate instead of being masked by a text re-parse.
	return dataset.ReadRatingsFile(path, workers)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-train:", err)
	os.Exit(1)
}
