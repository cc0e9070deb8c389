// Command hccmf-sim explores what-if platform configurations on the
// simulated multi-CPU/GPU machine: pick devices, a dataset shape and a
// partition/communication configuration, and see the planned epoch
// decomposition and simulated timing without training anything.
//
// Usage:
//
//	hccmf-sim -preset r1 -workers 2080S,6242,2080 -epochs 20
//	hccmf-sim -preset ml-20m -workers 2080S -strategy half-Q
//	hccmf-sim -preset netflix -workers 2080S,2080 -partition DP0
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hccmf/internal/bus"
	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/obs"
	"hccmf/internal/partition"
	"hccmf/internal/schedule"
	"hccmf/internal/trace"
	"hccmf/internal/version"
)

func main() {
	preset := flag.String("preset", "netflix", "dataset preset (netflix, r1, r1star, r2, ml-20m)")
	workersFlag := flag.String("workers", "2080S,6242,2080,6242l", "comma-separated worker devices: 6242, 6242l, 6242-<n>T, 2080, 2080S, V100")
	epochs := flag.Int("epochs", 20, "epochs to simulate")
	k := flag.Int("k", 128, "latent dimension")
	strategyFlag := flag.String("strategy", "", "force a communication strategy: P&Q, Q, half-Q, half-Q/async")
	partitionFlag := flag.String("partition", "", "stop partition refinement at DP0, DP1 or DP2")
	serverThreads := flag.Int("server-threads", 16, "server CPU thread count")
	timeline := flag.Int("timeline", 0, "render an ASCII Gantt of the first N epochs (Figure 5 style)")
	drift := flag.String("drift", "", "run a static-vs-adaptive drift study instead of a platform simulation: comma-separated name:rate0:factor worker trajectories (e.g. 'gpu0:8:0.25,gpu1:4:1,cpu0:2:1')")
	driftEpochs := flag.Int("drift-epochs", 30, "drift study run length in epochs")
	driftCost := flag.Float64("drift-cost", 0.02, "seconds one re-shard costs the adaptive schedule")
	driftHysteresis := flag.Float64("drift-hysteresis", 0.10, "re-shard hysteresis of the drift study's adaptive schedule")
	metricsOut := flag.String("metrics-out", "", "write an hccmf-obs/v1 metrics JSON document (sim gauges) to this file")
	traceOut := flag.String("trace-out", "", "write the simulated timeline as a Chrome trace_event JSON document to this file")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-sim", version.String())
		return
	}

	if *drift != "" {
		if err := runDriftStudy(*drift, *driftEpochs, *driftCost, *driftHysteresis); err != nil {
			fatal(err)
		}
		return
	}

	var observer *obs.Observer
	if *metricsOut != "" || *traceOut != "" {
		observer = obs.NewObserver(0, nil)
	}

	spec, err := dataset.Lookup(*preset)
	if err != nil {
		fatal(err)
	}

	plat := core.Platform{Server: device.Xeon6242(*serverThreads)}
	for _, name := range strings.Split(*workersFlag, ",") {
		w, err := parseWorker(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		plat.Workers = append(plat.Workers, w)
	}

	opts := core.PlanOptions{K: *k}
	if *strategyFlag != "" {
		s, err := parseStrategy(*strategyFlag)
		if err != nil {
			fatal(err)
		}
		opts.ForceStrategy = &s
	}
	if *partitionFlag != "" {
		p, err := parsePartition(*partitionFlag)
		if err != nil {
			fatal(err)
		}
		opts.ForcePartition = &p
	}

	res, err := core.Run(core.RunConfig{
		Spec: spec, Platform: plat, Epochs: *epochs, Plan: opts, Obs: observer,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset : %s (%dx%d, %d ratings)\n", spec.Name, spec.M, spec.N, spec.NNZ)
	fmt.Printf("plan    : %v\n", res.Plan)
	fmt.Printf("epochs  : %d in %.4fs simulated (%.4fs/epoch steady state)\n",
		*epochs, res.Sim.TotalTime, res.Sim.EpochTimes[len(res.Sim.EpochTimes)/2])
	fmt.Printf("power   : %.4g updates/s of %.4g ideal → %.1f%% utilization\n",
		res.Power, res.IdealPower, res.Utilization*100)
	fmt.Println("\nper-worker cumulative phases:")
	fmt.Print(trace.Format(trace.Rows(res.Sim.Events)))
	if *timeline > 0 {
		n := *timeline
		if n > len(res.Sim.EpochTimes) {
			n = len(res.Sim.EpochTimes)
		}
		var to float64
		for _, e := range res.Sim.EpochTimes[:n] {
			to += e
		}
		fmt.Printf("\nfirst %d epoch(s):\n%s", n, trace.Gantt(res.Sim.Events, 0, to, 100))
	}
	if pre, err := core.EstimatePreprocess(plat, spec, res.Plan); err == nil {
		fmt.Printf("\npreprocessing (once per job): %v\n", pre)
	}
	fmt.Println("\ncost model estimate for one epoch:")
	fmt.Printf("  max worker %.4fs, sync total %.4fs (ratio %.1f, hidden=%v)\n",
		res.Plan.Estimate.MaxWorker, res.Plan.Estimate.SyncTotal,
		res.Plan.Estimate.SyncRatio, res.Plan.Estimate.SyncHidden)

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
}

// runDriftStudy reproduces the Ma & Rusu static-vs-dynamic crossover on
// the closed-form drift model: workers whose throughput drifts over the
// run, a static schedule cut once from the initial rates, and an adaptive
// schedule that re-shards (and pays for it) when the predicted gain clears
// the hysteresis.
func runDriftStudy(spec string, epochs int, cost, hysteresis float64) error {
	var workers []schedule.DriftWorker
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return fmt.Errorf("drift worker %q: want name:rate0:factor", part)
		}
		rate0, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return fmt.Errorf("drift worker %q: rate0: %v", part, err)
		}
		factor, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Errorf("drift worker %q: factor: %v", part, err)
		}
		workers = append(workers, schedule.DriftWorker{Name: fields[0], Rate0: rate0, Factor: factor})
	}
	res, err := schedule.SimulateDrift(schedule.DriftStudy{
		Epochs:  epochs,
		Workers: workers,
		Policy: schedule.Config{
			Policy:     schedule.Throughput,
			Hysteresis: hysteresis,
		},
		RebalanceCost: cost,
	})
	if err != nil {
		return err
	}
	fmt.Printf("drift study: %d workers, %d epochs, re-shard cost %.3fs, hysteresis %.0f%%\n",
		len(workers), epochs, cost, hysteresis*100)
	for _, w := range workers {
		fmt.Printf("  %-8s rate %.3g → %.3g entries/s\n", w.Name, w.Rate0, w.Rate0*w.Factor)
	}
	fmt.Printf("\n%6s %12s %12s %12s %12s\n", "epoch", "static(s)", "adaptive(s)", "cum static", "cum adaptive")
	var cs, ca float64
	for e := range res.StaticEpochs {
		cs += res.StaticEpochs[e]
		ca += res.AdaptiveEpochs[e]
		fmt.Printf("%6d %12.4f %12.4f %12.4f %12.4f\n", e, res.StaticEpochs[e], res.AdaptiveEpochs[e], cs, ca)
	}
	fmt.Printf("\nstatic total   %.4fs\nadaptive total %.4fs (%d re-shards)\n",
		res.StaticTotal, res.AdaptiveTotal, res.Rebalances)
	if res.CrossoverEpoch >= 0 {
		fmt.Printf("crossover at epoch %d: adaptive cumulative time dips below static and stays ahead as the drift grows\n", res.CrossoverEpoch)
	} else {
		fmt.Println("no crossover within the horizon: the drift never outgrew the re-shard bill")
	}
	return nil
}

func parseWorker(name string) (core.WorkerSpec, error) {
	switch strings.ToUpper(name) {
	case "2080":
		return core.WorkerSpec{Device: device.RTX2080(), Bus: bus.PCIe3x16}, nil
	case "2080S":
		return core.WorkerSpec{Device: device.RTX2080Super(), Bus: bus.PCIe3x16}, nil
	case "V100":
		return core.WorkerSpec{Device: device.TeslaV100(), Bus: bus.PCIe3x16}, nil
	case "6242":
		return core.WorkerSpec{Device: device.Xeon6242(24), Bus: bus.UPI}, nil
	case "6242L":
		return core.WorkerSpec{Device: device.Xeon6242(10), Bus: bus.Local, TimeShared: true}, nil
	}
	upper := strings.ToUpper(name)
	if strings.HasPrefix(upper, "6242-") && strings.HasSuffix(upper, "T") {
		t := strings.TrimSuffix(strings.TrimPrefix(upper, "6242-"), "T")
		threads, err := strconv.Atoi(t)
		if err == nil && threads >= 1 && threads <= 48 {
			return core.WorkerSpec{Device: device.Xeon6242(threads), Bus: bus.UPI}, nil
		}
	}
	return core.WorkerSpec{}, fmt.Errorf("unknown worker %q", name)
}

func parseStrategy(s string) (comm.Strategy, error) {
	switch strings.ToLower(s) {
	case "p&q", "pq":
		return comm.Strategy{Encoding: comm.FP32, Streams: 1}, nil
	case "q":
		return comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}, nil
	case "half-q", "halfq":
		return comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}, nil
	case "half-q/async", "async":
		return comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 4}, nil
	}
	return comm.Strategy{}, fmt.Errorf("unknown strategy %q", s)
}

func parsePartition(s string) (partition.Strategy, error) {
	switch strings.ToUpper(s) {
	case "DP0":
		return partition.DP0Strategy, nil
	case "DP1":
		return partition.DP1Strategy, nil
	case "DP2":
		return partition.DP2Strategy, nil
	}
	return 0, fmt.Errorf("unknown partition strategy %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-sim:", err)
	os.Exit(1)
}
