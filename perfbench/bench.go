package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"hccmf/internal/comm"
)

// trainShare is the part of --seconds the training jobs get; the fixed-
// rate serving chunks fill the rest. The two interleave, so each samples
// the whole run rather than one end of it: on a shared machine the speed
// drifts over seconds, and a longer span averages more of that drift.
// Every end-to-end metric is a training one; serving needs only enough
// requests for its checks and the traced run's latencies.
const trainShare = 0.8

// run executes one benchmark run: inputs, then training jobs interleaved
// with serving chunks until --seconds have passed and at least two jobs
// ran, then the checks and the report.
func run(o options) (*report, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("run-%s-%d", o.w.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ext := ".bin"
	if o.w.text {
		ext = ".txt"
	}
	ratings := filepath.Join(dir, "ratings"+ext)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gen, err := startChild(self, "gen", "-workload", o.w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-out", ratings)
	if err != nil {
		return nil, err
	}
	if err := gen.wait(120 * time.Second); err != nil {
		return nil, err
	}

	t := &trainer{o: o, ratings: ratings, scratch: filepath.Join(dir, "model-job.bin"),
		models: [2]string{filepath.Join(dir, "model-final.bin"), filepath.Join(dir, "model-half.bin")}}
	start := time.Now()
	// The first job trains the two models the daemon serves.
	if err := t.job(); err != nil {
		return nil, err
	}
	sv, err := startServing(o, ratings, t.models, dir)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	measured := time.Duration(o.seconds * float64(time.Second))
	for {
		for sv.behind(time.Since(start), measured) {
			if err := sv.chunk(); err != nil {
				return nil, err
			}
		}
		if len(t.jobs) >= 2 && time.Since(start) >= measured {
			break
		}
		if err := t.job(); err != nil {
			return nil, err
		}
	}
	for !sv.finished() {
		if err := sv.chunk(); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	if err := t.report(rep); err != nil {
		return nil, err
	}
	if err := sv.report(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// trainOutcome is one job plus what its hccmf-ps child reported.
type trainOutcome struct {
	*jobResult
	traced        bool
	serverRSS     float64
	serverFrames  int
	serverSummary string
}

// trainer runs a run's training jobs: with tracing, alternately untraced
// and traced.
type trainer struct {
	o       options
	ratings string
	// models are the final model and the one after half the epochs of the
	// first job, which the serve daemon alternates between; later jobs
	// save to scratch.
	models  [2]string
	scratch string
	jobs    []trainOutcome
	// rss is each untraced job's peak resident set in MiB.
	rss []float64
}

func (t *trainer) job() error {
	i := len(t.jobs)
	traced := t.o.trace && i%2 == 1
	model := t.scratch
	if i == 0 {
		model = t.models[0]
	}
	// Each job's peak counts from a collected heap: the previous job's
	// garbage, and when the collector got to it, stay out of it. Where the
	// kernel cannot reset the peak, only the first job's counts.
	runtime.GC()
	debug.FreeOSMemory()
	reset := resetPeakRSS() == nil
	out, err := trainOnce(t.o, t.ratings, model, i, traced)
	if err != nil {
		return err
	}
	if !traced && (reset || i == 0) {
		mb, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		t.rss = append(t.rss, mb)
	}
	if i == 0 {
		if err := saveModel(t.models[1], out.half); err != nil {
			return err
		}
		out.half = nil
	}
	t.jobs = append(t.jobs, out)
	return nil
}

// report checks every job and reports the training metrics.
func (t *trainer) report(rep *report) error {
	o, w, jobs, rss := t.o, t.o.w, t.jobs, t.rss
	last := jobs[len(jobs)-1]
	var setup, job, ttr, final, epochs []float64
	var cross []int
	hashes := map[string]bool{}
	for i, j := range jobs {
		// A job attempts its epochs and its transfers, retries included; a
		// failed epoch aborts the job, so only transfers can fail here.
		rep.attempted += int64(w.epochs + j.layers.calls + j.layers.retries)
		rep.failed += int64(j.layers.failed)
		hashes[j.hash] = true
		rmse0, fin := j.rmse[0], j.rmse[len(j.rmse)-1]
		rep.check(j.roundTrip, "job %d: saved model does not read back equal", i)
		rep.check(fin < rmse0, "job %d: final RMSE %.5f not below initial %.5f", i, fin, rmse0)
		rep.check(fin <= w.targetRMSE, "job %d: final RMSE %.5f above target %.5f", i, fin, w.targetRMSE)
		rep.check(j.crossEpoch >= 2 && j.crossEpoch <= w.epochs-1,
			"job %d: RMSE target %.4f crossed at epoch %d, not within 2..%d", i, w.targetRMSE, j.crossEpoch, w.epochs-1)
		cross = append(cross, j.crossEpoch)
		if j.traced {
			continue
		}
		setup = append(setup, j.setupS)
		job = append(job, j.jobS)
		ttr = append(ttr, j.ttrS)
		final = append(final, fin)
		epochs = append(epochs, j.epochS[1:]...)
	}
	if w.bitExact {
		rep.check(len(hashes) == 1, "%d distinct model hashes in %d jobs", len(hashes), len(jobs))
		rep.check(sameHashAcrossRuns(o, last.hash), "model hash differs from an earlier run of seed %d", o.seed)
	}
	rep.details["jobs"] = len(jobs)
	rep.details["model_sha256"] = last.hash
	rep.details["rmse_curve"] = last.rmse
	rep.details["setup_s"] = setup
	rep.details["job_s"] = job
	rep.details["time_to_rmse_s"] = ttr
	rep.details["epoch_s"] = epochs
	rep.details["cross_epoch"] = cross
	rep.details["peak_rss_mb"] = rss

	if !o.trace {
		rep.set("setup_s", "s", median(setup))
		rep.set("job_s", "s", median(job))
		// Eq. 8 measured over the steady epochs (2..N) of the untraced
		// jobs: ratings trained ÷ seconds taken. Not the median epoch: the
		// heavier worker's epoch time is bimodal (it depends on which vCPU
		// the machine's other tenants slow down), and the median jumps
		// between the modes where the pooled rate moves smoothly.
		steady := 0.0
		for _, e := range epochs {
			steady += e
		}
		rep.set("updates_per_s", "1/s", float64(last.trainNNZ*len(epochs))/steady)
		rep.set("time_to_rmse_s", "s", median(ttr))
		rep.set("final_rmse", "rmse", median(final))
		// The peak is the highest job's: whether a collection lands just
		// before a job's largest allocation splits jobs into two levels.
		rep.set("peak_rss_mb", "MB", slices.Max(rss))
		return nil
	}
	return reportTrainLayers(o, jobs, rep)
}

// trainOnce runs one job, against a fresh hccmf-ps child on the tcp
// workload (the server fixes its dims at the first handshake).
func trainOnce(o options, ratings, model string, i int, traced bool) (trainOutcome, error) {
	w := o.w
	cfg := jobConfig{w: w, ratings: ratings, model: model, seed: o.seed, nproc: o.nproc, keepHalf: i == 0}
	var ps *child
	if w.transport != comm.KindShared {
		ready := filepath.Join(filepath.Dir(model), "ps.addr")
		_ = os.Remove(ready)
		var err error
		ps, err = startChild(filepath.Join(o.bin, "hccmf-ps"), "-listen", "127.0.0.1:0", "-ready-file", ready)
		if err != nil {
			return trainOutcome{}, err
		}
		defer ps.stop()
		if cfg.psAddr, err = waitReadyFile(ps, ready, 30*time.Second); err != nil {
			return trainOutcome{}, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-job%d", w.name, o.seed, i))
	}
	res, err := runJob(cfg, tr)
	if err != nil {
		return trainOutcome{}, err
	}
	out := trainOutcome{jobResult: res, traced: traced}
	if ps != nil {
		out.serverRSS, _ = peakRSSMB(strconv.Itoa(ps.pid()))
		ps.stop()
		out.serverSummary = ps.output()
		if m := drainLine.FindStringSubmatch(out.serverSummary); m != nil {
			out.serverFrames, _ = strconv.Atoi(m[1])
		}
	}
	return out, nil
}

// drainLine matches the stats line hccmf-ps prints when it drains.
var drainLine = regexp.MustCompile(`drained in [^:]*: \d+ conns, (\d+) frames`)

// sameHashAcrossRuns compares a bit-exact workload's model hash with the
// one an earlier run of the same seed and sources recorded in the work
// directory, and records it when there is none.
func sameHashAcrossRuns(o options, hash string) bool {
	path := filepath.Join(o.work, "hashes", fmt.Sprintf("%s-%d-%s", o.w.name, o.seed, os.Getenv("PERFBENCH_COMMIT")))
	if prev, err := os.ReadFile(path); err == nil {
		return string(prev) == hash
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, []byte(hash), 0o644)
	}
	return true
}

// layerNames are the modules a traced job's spans are attributed to.
var layerNames = []string{"dataset", "sparse", "core", "comm", "ps", "mf"}

// reportTrainLayers reports the per-layer metrics: medians over the traced
// jobs of each public call's seconds, the wrappers' counts, each layer's
// self time, and the tracing overhead against the untraced jobs of the
// same run. It writes the last traced job's spans as a Chrome trace.
func reportTrainLayers(o options, jobs []trainOutcome, rep *report) error {
	var traced, plain []trainOutcome
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
		}
	}
	epochs := float64(o.w.epochs)
	med := func(f func(j trainOutcome) float64) float64 {
		xs := make([]float64, len(traced))
		for i, j := range traced {
			xs[i] = f(j)
		}
		return median(xs)
	}
	set := func(name, unit string, f func(j trainOutcome) float64) { rep.set(name, unit, med(f)) }
	set("dataset.read_s", "s", func(j trainOutcome) float64 { return j.layers.readS })
	set("sparse.split_s", "s", func(j trainOutcome) float64 { return j.layers.splitS })
	set("core.plan_s", "s", func(j trainOutcome) float64 { return j.layers.planS })
	set("comm.new_s", "s", func(j trainOutcome) float64 { return j.layers.commNewS })
	set("core.build_confs_s", "s", func(j trainOutcome) float64 { return j.layers.confsS })
	set("ps.new_s", "s", func(j trainOutcome) float64 { return j.layers.psNewS })
	set("ps.epoch_s", "s", func(j trainOutcome) float64 { return median(j.epochS[1:]) })
	set("ps.barrier_wait_frac", "ratio", func(j trainOutcome) float64 {
		fr := make([]float64, 0, len(j.layers.busy))
		for _, busy := range j.layers.busy {
			hi, sum := 0.0, 0.0
			for _, b := range busy {
				hi, sum = max(hi, b), sum+b
			}
			if hi > 0 {
				fr = append(fr, (hi-sum/float64(len(busy)))/hi)
			}
		}
		return median(fr)
	})
	for _, eng := range []string{"batched", "fpsgd"} {
		set("mf.compute_s."+eng, "s", func(j trainOutcome) float64 { return j.layers.computeS[eng] / epochs })
		set("mf.ns_per_update."+eng, "ns", func(j trainOutcome) float64 {
			if j.layers.updates[eng] == 0 {
				return 0
			}
			return j.layers.computeS[eng] / float64(j.layers.updates[eng]) * 1e9
		})
	}
	set("mf.eval_s", "s", func(j trainOutcome) float64 { return j.layers.evalS / (epochs + 1) })
	set("mf.save_s", "s", func(j trainOutcome) float64 { return j.layers.saveS })
	set("comm.pull_s", "s", func(j trainOutcome) float64 { return j.layers.pullS / epochs })
	set("comm.push_s", "s", func(j trainOutcome) float64 { return j.layers.pushS / epochs })
	set("comm.calls_per_epoch", "count", func(j trainOutcome) float64 { return float64(j.layers.calls) / epochs })
	set("comm.bus_bytes_per_epoch", "B", func(j trainOutcome) float64 { return float64(j.comm.BusBytes) / epochs })
	set("comm.retries", "count", func(j trainOutcome) float64 { return float64(j.layers.retries) })
	set("comm.failed", "count", func(j trainOutcome) float64 { return float64(j.layers.failed) })
	set("comm.net.wire_bytes_per_epoch", "B", func(j trainOutcome) float64 { return float64(j.comm.WireBytes) / epochs })
	set("comm.net.frames_per_epoch", "count", func(j trainOutcome) float64 { return float64(j.comm.Frames) / epochs })
	set("comm.net.handshakes", "count", func(j trainOutcome) float64 { return float64(j.comm.Handshakes) })
	set("comm.net.server_frames", "count", func(j trainOutcome) float64 { return float64(j.serverFrames) })
	set("comm.net.server_rss_mb", "MB", func(j trainOutcome) float64 { return j.serverRSS })
	// CPU use is read from the untraced jobs: the tracer's own work would
	// count as the program's.
	util := make([]float64, len(plain))
	for i, j := range plain {
		util[i] = j.epochsCPU / j.epochsWall
	}
	rep.set("core.cpu_util", "ratio", median(util))

	selfs := map[string][]float64{}
	var rem, wall, tracedJob, plainJob []float64
	for _, j := range traced {
		byLayer, r := selfTimes(j.spans, j.root)
		total := r
		for _, l := range layerNames {
			selfs[l] = append(selfs[l], byLayer[l])
			total += byLayer[l]
		}
		w := j.spans[j.root-1].End - j.spans[j.root-1].Start
		rep.check(len(byLayer) <= len(layerNames), "spans in unknown layers: %v", byLayer)
		rep.check(math.Abs(total-w) < 1e-6*w, "layer self times plus remainder %.6fs != job wall %.6fs", total, w)
		rem, wall = append(rem, r), append(wall, w)
		rep.details["busy_s"] = j.layers.busy
		tracedJob = append(tracedJob, j.jobS)
	}
	for _, j := range plain {
		plainJob = append(plainJob, j.jobS)
	}
	for _, l := range layerNames {
		rep.set("self_s."+l, "s", median(selfs[l]))
	}
	rep.set("self_s.remainder", "s", median(rem))
	rep.set("trace.job_wall_s", "s", median(wall))
	rep.set("trace.overhead_s", "s", median(tracedJob)-median(plainJob))

	last := traced[len(traced)-1]
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-%d.json", o.w.name, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rep.details["trace_file"] = path
	return writeChromeTrace(path, last.spans)
}
