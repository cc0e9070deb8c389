package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
	"syscall"
	"time"

	"hccmf/internal/comm"
	_ "hccmf/internal/comm/net" // registers the tcp transport kind
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/ps"
	"hccmf/internal/sparse"
)

// jobConfig is everything one training job needs besides the tracer.
type jobConfig struct {
	w        workload
	ratings  string // ratings file
	model    string // where mf.WriteFactors saves the final model
	psAddr   string // hccmf-ps address for the tcp transport
	seed     uint64
	nproc    int
	keepHalf bool // keep the model after epochs/2 (the serve phase reloads it)
}

// jobResult is what one job measured.
type jobResult struct {
	setupS, jobS, ttrS float64
	// crossEpoch is the 1-based epoch whose RMSE first met the target (0:
	// never).
	crossEpoch int
	// epochS holds each RunEpoch's seconds; rmse the held-out RMSE of the
	// initial model followed by every epoch's.
	epochS   []float64
	rmse     []float64
	trainNNZ int
	// epochsCPU and epochsWall are the process CPU and wall seconds spent
	// in the epoch loop (training plus evaluation).
	epochsCPU, epochsWall float64
	comm                  comm.TransferStats
	hash                  string
	half                  *mf.Factors
	// roundTrip reports whether the saved model read back equal.
	roundTrip bool
	layers    *jobLayers
	// Traced jobs only: the spans and the id of the job's root span.
	spans []span
	root  int
}

// jobLayers holds the seconds of each public call. The set-up calls are
// timed on every job; the transfer and compute figures come from the
// wrappers a traced job installs.
type jobLayers struct {
	readS, splitS, planS, commNewS, confsS, psNewS, evalS, saveS float64

	mu                     sync.Mutex
	pullS, pushS           float64
	calls, failed, retries int
	computeS               map[string]float64
	updates                map[string]int64
	// busy[e][i] is worker i's pull+compute+push seconds in epoch e.
	busy [][]float64
}

// platform is the paper's first w.workers workers: the 2080S (mf.Batched),
// then the 6242-24T (mf.FPSGD).
func platform(w workload) core.Platform { return core.PaperPlatformOverall().FirstWorkers(w.workers) }

// tuning caps every engine at max(1, nproc/2) threads so the two workers'
// busy threads never exceed the machine; evaluation runs alone between
// epochs and uses every core.
func tuning(nproc int) core.Tuning {
	return core.Tuning{HostCap: max(1, nproc/2), EvalThreads: nproc}
}

// planOptions offers the planner max(2, nproc/workers) streams on an async
// workload, so every stream computes on a core of its own, and one stream
// otherwise. The planner still decides (comm.Choose); runJob checks that
// it decided as the workload expects.
func planOptions(w workload, nproc int) core.PlanOptions {
	streams := 1
	if w.async {
		streams = max(2, nproc/w.workers)
	}
	return core.PlanOptions{K: w.k, Streams: streams}
}

// fileSpec describes a ratings file to the planner the way hccmf-train
// -input does, with the workload's learning rate.
func fileSpec(w workload, rows, cols, nnz int) dataset.Spec {
	return dataset.Spec{
		Name: "file", M: rows, N: cols, NNZ: int64(nnz), Rank: w.k,
		Params: dataset.Params{Gamma: w.gamma, Lambda1: 0.01, Lambda2: 0.01},
	}
}

// runJob composes the public calls core.Run makes for real execution,
// preceded by the file read and split hccmf-train does and followed by the
// save: read, split, plan, comm.New, BuildWorkerConfs, ps.New, then
// RunEpoch plus evaluation per epoch, then WriteFactors. With a non-nil
// tracer every call is a span and the transport and the engines are
// wrapped; with nil nothing is wrapped.
func runJob(cfg jobConfig, tr *tracer) (*jobResult, error) {
	w := cfg.w
	lay := &jobLayers{computeS: map[string]float64{}, updates: map[string]int64{}}
	res := &jobResult{layers: lay}
	t0 := time.Now()
	since := func() float64 { return time.Since(t0).Seconds() }
	root := tr.begin("job", w.name, "", 0)
	res.root = root
	timed := func(layer, name string, dst *float64, fn func() error) error {
		id := tr.begin(layer, name, "", root)
		s := time.Now()
		err := fn()
		*dst += time.Since(s).Seconds()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		return nil
	}

	var m, train, test *sparse.COO
	if err := timed("dataset", "read", &lay.readS, func() (err error) {
		m, err = dataset.ReadRatingsFile(cfg.ratings, cfg.nproc)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("sparse", "split", &lay.splitS, func() (err error) {
		train, test, err = m.SplitTrainTest(sparse.NewRand(cfg.seed), 0.1)
		return err
	}); err != nil {
		return nil, err
	}
	spec := fileSpec(w, m.Rows, m.Cols, m.NNZ())
	m = nil
	plat := platform(w)
	var plan core.Plan
	if err := timed("core", "plan", &lay.planS, func() (err error) {
		plan, err = core.PlanRun(plat, spec, planOptions(w, cfg.nproc))
		return err
	}); err != nil {
		return nil, err
	}
	if async := plan.Strategy.Streams > 1; async != w.async {
		return nil, fmt.Errorf("core.plan: %d streams, want async=%v", plan.Strategy.Streams, w.async)
	}
	if plan.Transposed {
		train, test = train.Transpose(), test.Transpose()
	}
	var transport comm.Transport
	if err := timed("comm", "new", &lay.commNewS, func() (err error) {
		transport, err = comm.New(comm.Spec{Kind: w.transport, Addr: cfg.psAddr,
			Workers: len(plat.Workers), M: train.Rows, N: train.Cols, K: w.k})
		return err
	}); err != nil {
		return nil, err
	}
	defer func() { _ = comm.CloseTransport(transport) }()

	// The epoch span is the parent of the transfer and compute spans that
	// run on worker goroutines inside RunEpoch.
	var epochMu sync.Mutex
	epochSpan := root
	parent := func() int {
		epochMu.Lock()
		defer epochMu.Unlock()
		return epochSpan
	}
	// observe wraps the transport for one worker (or the server, worker
	// -1). Every job counts its transfers this way; only a traced job
	// gives the wrapper a clock.
	observe := func(worker int, track string) comm.Transport {
		var now func() time.Time
		if tr != nil {
			now = time.Now
		}
		return comm.NewObserved(transport, now, func(op string, st comm.TransferStats, seconds float64, failed bool) {
			if tr != nil {
				end := tr.now()
				tr.add("comm", op, track, parent(), end-seconds, end)
			}
			lay.mu.Lock()
			defer lay.mu.Unlock()
			lay.calls++
			lay.retries += st.Retries
			if failed {
				lay.failed++
			}
			switch op {
			case "pull":
				lay.pullS += seconds
			case "push":
				lay.pushS += seconds
			}
			if n := len(lay.busy); worker >= 0 && n > 0 {
				lay.busy[n-1][worker] += seconds
			}
		})
	}
	stack := observe(-1, "server")
	var confs []ps.WorkerConf
	if err := timed("core", "build_confs", &lay.confsS, func() (err error) {
		confs, err = core.BuildWorkerConfs(plan.Platform, plan, train, tuning(cfg.nproc))
		return err
	}); err != nil {
		return nil, err
	}
	if tr != nil {
		for i := range confs {
			label := engineLabel(confs[i].Engine)
			confs[i].Transport = observe(i, label)
			confs[i].Engine = &timedEngine{inner: confs[i].Engine, label: label, worker: i,
				tr: tr, lay: lay, parent: parent}
		}
	}
	var cluster *ps.Cluster
	if err := timed("ps", "new", &lay.psNewS, func() (err error) {
		cluster, err = ps.New(ps.Config{
			M: train.Rows, N: train.Cols, K: w.k,
			Hyper: mf.HyperParams{Gamma: spec.Params.Gamma, Lambda1: spec.Params.Lambda1,
				Lambda2: spec.Params.Lambda2},
			Transport:  stack,
			Strategy:   plan.Strategy,
			MeanRating: train.MeanRating(),
			Seed:       cfg.seed + 1,
		}, confs)
		return err
	}); err != nil {
		return nil, err
	}
	res.setupS = since()
	res.trainNNZ = train.NNZ()

	threads := tuning(cfg.nproc).EvalThreads
	evaluate := func() error {
		return timed("mf", "eval", &lay.evalS, func() error {
			res.rmse = append(res.rmse, mf.RMSEParallel(cluster.Snapshot(), test.Entries, threads))
			return nil
		})
	}
	_ = evaluate()
	cpu0, wall0 := cpuSeconds(), time.Now()
	for e := 0; e < w.epochs; e++ {
		id := tr.begin("ps", "epoch", "", root)
		epochMu.Lock()
		epochSpan = id
		epochMu.Unlock()
		lay.busy = append(lay.busy, make([]float64, len(confs)))
		s := time.Now()
		err := cluster.RunEpoch(e, w.epochs)
		res.epochS = append(res.epochS, time.Since(s).Seconds())
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("ps.epoch %d: %w", e, err)
		}
		_ = evaluate()
		if res.ttrS == 0 && res.rmse[len(res.rmse)-1] <= w.targetRMSE {
			res.ttrS, res.crossEpoch = since(), e+1
		}
		if cfg.keepHalf && e == w.epochs/2-1 {
			res.half = cluster.Snapshot()
		}
	}
	res.epochsCPU, res.epochsWall = cpuSeconds()-cpu0, time.Since(wall0).Seconds()
	model := cluster.Snapshot()
	if err := timed("mf", "save", &lay.saveS, func() error {
		return saveModel(cfg.model, model)
	}); err != nil {
		return nil, err
	}
	res.jobS = since()
	tr.end(root)
	res.comm = cluster.CommStats()

	// Output checks, outside every timed window.
	raw, err := os.ReadFile(cfg.model)
	if err != nil {
		return nil, err
	}
	res.hash = digest(raw)
	back, err := mf.ReadFactors(bytes.NewReader(raw))
	res.roundTrip = err == nil && sameFactors(back, model)
	if tr != nil {
		tr.mu.Lock()
		res.spans = append([]span(nil), tr.spans...)
		tr.mu.Unlock()
	}
	return res, nil
}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func saveModel(path string, f *mf.Factors) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mf.WriteFactors(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func sameFactors(a, b *mf.Factors) bool {
	if a.M != b.M || a.N != b.N || a.K != b.K {
		return false
	}
	return sameBits(a.P, b.P) && sameBits(a.Q, b.Q)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// timedEngine times each worker's Epoch call from outside the engine.
type timedEngine struct {
	inner  mf.Engine
	label  string
	worker int
	tr     *tracer
	lay    *jobLayers
	parent func() int
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Epoch(f *mf.Factors, train *sparse.COO, h mf.HyperParams) {
	id := e.tr.begin("mf", "compute", e.label, e.parent())
	s := time.Now()
	e.inner.Epoch(f, train, h)
	sec := time.Since(s).Seconds()
	e.tr.end(id)
	e.lay.mu.Lock()
	defer e.lay.mu.Unlock()
	e.lay.computeS[e.label] += sec
	e.lay.updates[e.label] += int64(train.NNZ())
	if n := len(e.lay.busy); n > 0 {
		e.lay.busy[n-1][e.worker] += sec
	}
}

// engineLabel names an engine by kind for metric names.
func engineLabel(e mf.Engine) string {
	switch e.(type) {
	case *mf.Batched:
		return "batched"
	case *mf.FPSGD:
		return "fpsgd"
	default:
		return "other"
	}
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
