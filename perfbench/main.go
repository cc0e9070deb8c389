// Command perfbench is HCC-MF's end-to-end benchmark. One run generates a
// workload's ratings file from the seed, trains on it through the public
// dataset/sparse/core/comm/ps/mf API in-process (against a child hccmf-ps
// on the tcp workload), saves the model, then serves it from a child
// hccmf-serve under open-loop traffic. It checks every output and prints
// the metrics as one JSON object on its last line.
//
// Usage (from the repository root, after building the binaries; see
// perfbench/run.py, which does both):
//
//	perfbench -workload train-cached -seed 1 -seconds 20 -trace 0
//	perfbench gen -workload train-cached -seed 1 -out ratings.bin
//
// -trace 0 reports the end-to-end metrics; -trace 1 alternates untraced
// and traced jobs and reports the per-layer metrics, the tracing overhead,
// and writes the spans as a Chrome trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: train-cached or train-wide-tcp")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for inputs, models, traces and results")
	bin := flag.String("bin", filepath.Join(".bench_build", "perfbench", "bin"), "directory holding hccmf-ps and hccmf-serve")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1,
		work: *work, bin: *bin, nproc: runtime.NumCPU()}
	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type options struct {
	w         workload
	seed      uint64
	seconds   float64
	trace     bool
	work, bin string
	nproc     int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	// details are extra figures written to the result file only (sample
	// counts, per-job values) so a reader can see what a median came from.
	details map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// check records a failed output check; the run then reports correct=false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes a human-readable line per metric, the environment stamp,
// and the result object as the last line; it also saves everything to the
// run's result file.
func (r *report) print(out *os.File, o options) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	env := environment(o)
	stamp, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", stamp)
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	full, err := json.MarshalIndent(map[string]any{
		"result": result, "env": env, "details": r.details, "problems": r.problems,
	}, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(o.work, "results", fmt.Sprintf("%s-%d-%s.json", o.w.name, o.seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// environment stamps a result with the machine and build it came from.
func environment(o options) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"seed":       o.seed,
		"workload":   o.w.name,
		"seconds":    o.seconds,
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"cpu_model":  cpuModel(),
		"l2_bytes":   l2Bytes(),
	}
	return env
}

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

// l2Bytes reads the size of CPU 0's level-2 cache from sysfs.
func l2Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "2" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil {
			return n * mult
		}
	}
	return 0
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
