package kernelbench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/raceflag"
)

// Schema tags the JSON document emitted by `hccmf-bench -json`. The field
// set is pinned by TestReportSchemaStable; bump the version when it
// changes so downstream consumers (BENCH_*.json diffs) can tell.
const Schema = "hccmf-bench/kernel/v1"

// IngestSchema tags the ingestion benchmark group embedded in the same
// document (the Ingest field). Versioned separately from the kernel group
// so either suite can evolve without invalidating the other's diffs.
const IngestSchema = "hccmf-bench/ingest/v1"

// Workload records the fixed benchmark problem shape inside the report so
// a checked-in document is self-describing.
type Workload struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	NNZ  int `json:"nnz"`
	K    int `json:"k"`
}

// Result is one kernel's aggregated measurement. Times and rates are means
// over the report's Count runs; Iterations sums the runs' b.N. AllocsPerOp
// and BytesPerOp deliberately have no omitempty: 0 allocs is the headline
// claim, so it must appear explicitly.
type Result struct {
	Name          string  `json:"name"`
	Skipped       bool    `json:"skipped,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	NsPerOp       float64 `json:"ns_per_op,omitempty"`
	NsPerUpdate   float64 `json:"ns_per_update,omitempty"`
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
	MBPerSec      float64 `json:"mb_per_sec,omitempty"`
	EntriesPerSec float64 `json:"entries_per_sec,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// Report is the full document `hccmf-bench -json` writes.
type Report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Kernel, NumCPU and CPUModel stamp the host the report was measured
	// on: mf.Kernel()'s sweep tier, runtime.NumCPU() and /proc/cpuinfo's
	// model name. Reports written before the stamps existed omit them.
	Kernel   string   `json:"kernel,omitempty"`
	NumCPU   int      `json:"num_cpu,omitempty"`
	CPUModel string   `json:"cpu_model,omitempty"`
	Count    int      `json:"count"`
	Race     bool     `json:"race,omitempty"`
	Workload Workload `json:"workload"`
	Kernels  []Result `json:"kernels"`
	// IngestSchema and Ingest carry the ingestion benchmark group
	// (IngestSuite); both are omitted from kernel-only documents.
	IngestSchema string   `json:"ingest_schema,omitempty"`
	Ingest       []Result `json:"ingest,omitempty"`
	// ServeSchema and Serve carry the serving benchmark group — written by
	// Collect (in-process harness) and by hccmf-loadgen (over HTTP).
	ServeSchema string        `json:"serve_schema,omitempty"`
	Serve       []ServeResult `json:"serve,omitempty"`
	// ScheduleSchema and Schedule carry the adaptive-scheduling group
	// (ScheduleSuite): the static-vs-adaptive straggler comparison and the
	// re-solve micro-benchmark.
	ScheduleSchema string   `json:"schedule_schema,omitempty"`
	Schedule       []Result `json:"schedule,omitempty"`
}

// Stamp is the one-line host description benchdiff prints for a report:
// Go version, GOMAXPROCS, core count, sweep kernel and CPU model, with "?"
// for a stamp the report predates.
func (r Report) Stamp() string {
	orUnknown := func(s string) string {
		if s == "" {
			return "?"
		}
		return s
	}
	cpus := "?"
	if r.NumCPU > 0 {
		cpus = fmt.Sprint(r.NumCPU)
	}
	return fmt.Sprintf("%s gomaxprocs=%d num_cpu=%s kernel=%s cpu=%q",
		orUnknown(r.GoVersion), r.GOMAXPROCS, cpus, orUnknown(r.Kernel), orUnknown(r.CPUModel))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; it is
// empty where that file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Bench is one named kernel micro-benchmark of the suite.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite lists the kernel micro-benchmarks in report order. The names match
// the Benchmark* wrappers in bench_test.go minus the prefix, so `go test
// -bench` output and `hccmf-bench -json` documents line up.
func Suite() []Bench {
	return []Bench{
		{"UpdateOne", UpdateOne},
		{"FPSGDEpoch", FPSGDEpoch},
		{"BatchedEpoch", BatchedEpoch},
		{"HogwildEpoch", HogwildEpoch},
		{"RMSEParallel", RMSEParallel},
		{"BuildWorkerConfs", BuildWorkerConfs},
	}
}

// Collect runs the whole suite count times per kernel (testing.Benchmark
// with its default 1s target per run) and aggregates the means. Averaging
// over a few runs is deliberate: single runs on a busy host are noisy,
// and the checked-in BENCH_*.json numbers should be reproducible.
func Collect(count int) Report {
	if count < 1 {
		count = 1
	}
	rep := Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     mf.Kernel(),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Count:      count,
		Race:       raceflag.Enabled,
		Workload:   Workload{Rows: Rows, Cols: Cols, NNZ: NNZ, K: K},
	}
	for _, bm := range Suite() {
		rep.Kernels = append(rep.Kernels, collectOne(bm, count))
	}
	rep.IngestSchema = IngestSchema
	for _, bm := range IngestSuite() {
		rep.Ingest = append(rep.Ingest, collectOne(bm, count))
	}
	// The serving harness cannot fail on the fixed workload; if it somehow
	// does, the group is omitted rather than poisoning the whole report.
	if serve, err := CollectServe(count); err == nil {
		rep.ServeSchema = ServeSchema
		rep.Serve = serve
	}
	rep.ScheduleSchema = ScheduleSchema
	rep.Schedule = CollectSchedule(count)
	return rep
}

// collectOne aggregates count testing.Benchmark runs of one kernel. A
// benchmark that skips itself (the lock-free engines under -race) yields
// b.N == 0 and is reported as Skipped.
func collectOne(bm Bench, count int) Result {
	res := Result{Name: bm.Name}
	runs := 0
	for i := 0; i < count; i++ {
		r := testing.Benchmark(bm.Fn)
		if r.N == 0 {
			continue
		}
		runs++
		res.Iterations += r.N
		res.NsPerOp += float64(r.NsPerOp())
		res.NsPerUpdate += r.Extra["ns/update"]
		res.UpdatesPerSec += r.Extra["updates/s"]
		res.MBPerSec += r.Extra["MB/s"]
		res.EntriesPerSec += r.Extra["entries/s"]
		res.AllocsPerOp += r.AllocsPerOp()
		res.BytesPerOp += r.AllocedBytesPerOp()
	}
	if runs == 0 {
		return Result{Name: bm.Name, Skipped: true}
	}
	n := float64(runs)
	res.NsPerOp /= n
	res.NsPerUpdate /= n
	res.UpdatesPerSec /= n
	res.MBPerSec /= n
	res.EntriesPerSec /= n
	res.AllocsPerOp /= int64(runs)
	res.BytesPerOp /= int64(runs)
	return res
}
