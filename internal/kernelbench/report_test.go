package kernelbench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestReportSchemaStable pins the JSON field set of the -json document.
// BENCH_*.json files are diffed across PRs, so renaming a field is a
// schema change: bump Schema and update this golden together.
func TestReportSchemaStable(t *testing.T) {
	rep := Report{
		Schema:     Schema,
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 1,
		Count:      3,
		Workload:   Workload{Rows: Rows, Cols: Cols, NNZ: NNZ, K: K},
		Kernels: []Result{{
			Name: "UpdateOne", Iterations: 100, NsPerOp: 42,
			NsPerUpdate: 42, UpdatesPerSec: 2.38e7,
		}},
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"hccmf-bench/kernel/v1","go_version":"go1.24.0",` +
		`"gomaxprocs":1,"count":3,` +
		`"workload":{"rows":2000,"cols":1000,"nnz":200000,"k":32},` +
		`"kernels":[{"name":"UpdateOne","iterations":100,"ns_per_op":42,` +
		`"ns_per_update":42,"updates_per_sec":23800000,` +
		`"allocs_per_op":0,"bytes_per_op":0}]}`
	if string(got) != want {
		t.Fatalf("schema drifted:\n got %s\nwant %s", got, want)
	}
}

// TestIngestSchemaStable pins the ingest group's field set the same way:
// the throughput metrics are MB/s and entries/s, and the kernel-only
// fields stay omitted for ingest results.
func TestIngestSchemaStable(t *testing.T) {
	rep := Report{
		Schema:       Schema,
		GoVersion:    "go1.24.0",
		GOMAXPROCS:   1,
		Count:        3,
		Workload:     Workload{Rows: Rows, Cols: Cols, NNZ: NNZ, K: K},
		IngestSchema: IngestSchema,
		Ingest: []Result{{
			Name: "ReadText", Iterations: 10, NsPerOp: 1e6,
			MBPerSec: 350, EntriesPerSec: 4.2e7,
		}},
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"hccmf-bench/kernel/v1","go_version":"go1.24.0",` +
		`"gomaxprocs":1,"count":3,` +
		`"workload":{"rows":2000,"cols":1000,"nnz":200000,"k":32},` +
		`"kernels":null,` +
		`"ingest_schema":"hccmf-bench/ingest/v1",` +
		`"ingest":[{"name":"ReadText","iterations":10,"ns_per_op":1000000,` +
		`"mb_per_sec":350,"entries_per_sec":42000000,` +
		`"allocs_per_op":0,"bytes_per_op":0}]}`
	if string(got) != want {
		t.Fatalf("ingest schema drifted:\n got %s\nwant %s", got, want)
	}
}

// TestServeSchemaStable pins the serving group's field set: exact
// nearest-rank percentiles in microseconds plus throughput. Requests and
// Errors have no omitempty — 0 errors is the claim being recorded.
func TestServeSchemaStable(t *testing.T) {
	rep := Report{
		Schema:      Schema,
		GoVersion:   "go1.24.0",
		GOMAXPROCS:  1,
		Count:       3,
		Workload:    Workload{Rows: Rows, Cols: Cols, NNZ: NNZ, K: K},
		ServeSchema: ServeSchema,
		Serve: []ServeResult{{
			Name: "TopN10", Requests: 2000, QPS: 50000,
			P50us: 18, P99us: 41, MeanUs: 20,
		}},
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"hccmf-bench/kernel/v1","go_version":"go1.24.0",` +
		`"gomaxprocs":1,"count":3,` +
		`"workload":{"rows":2000,"cols":1000,"nnz":200000,"k":32},` +
		`"kernels":null,` +
		`"serve_schema":"hccmf-bench/serve/v1",` +
		`"serve":[{"name":"TopN10","requests":2000,"errors":0,"qps":50000,` +
		`"p50_us":18,"p99_us":41,"mean_us":20}]}`
	if string(got) != want {
		t.Fatalf("serve schema drifted:\n got %s\nwant %s", got, want)
	}
}

// TestScheduleSchemaStable pins the schedule group's field set: the
// straggler pair reports ns/update like the kernel group (its unit of
// work is SGD updates through a re-shardable cluster), so the same
// Result shape rides under the schedule keys.
func TestScheduleSchemaStable(t *testing.T) {
	rep := Report{
		Schema:         Schema,
		GoVersion:      "go1.24.0",
		GOMAXPROCS:     1,
		Count:          3,
		Workload:       Workload{Rows: Rows, Cols: Cols, NNZ: NNZ, K: K},
		ScheduleSchema: ScheduleSchema,
		Schedule: []Result{{
			Name: "StragglerAdaptive", Iterations: 50, NsPerOp: 2.7e7,
			NsPerUpdate: 137, UpdatesPerSec: 7.3e6,
		}},
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"hccmf-bench/kernel/v1","go_version":"go1.24.0",` +
		`"gomaxprocs":1,"count":3,` +
		`"workload":{"rows":2000,"cols":1000,"nnz":200000,"k":32},` +
		`"kernels":null,` +
		`"schedule_schema":"hccmf-bench/schedule/v1",` +
		`"schedule":[{"name":"StragglerAdaptive","iterations":50,` +
		`"ns_per_op":27000000,"ns_per_update":137,"updates_per_sec":7300000,` +
		`"allocs_per_op":0,"bytes_per_op":0}]}`
	if string(got) != want {
		t.Fatalf("schedule schema drifted:\n got %s\nwant %s", got, want)
	}
}

// TestCollectOneAggregates checks run aggregation and skip handling with a
// synthetic benchmark (the real suite is exercised by bench_test.go and
// verify.sh's bench smoke step).
func TestCollectOneAggregates(t *testing.T) {
	bench := Bench{Name: "synthetic", Fn: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		ReportUpdates(b, 1)
	}}
	res := collectOne(bench, 2)
	if res.Skipped {
		t.Fatal("synthetic benchmark reported as skipped")
	}
	if res.Iterations == 0 || res.UpdatesPerSec <= 0 {
		t.Fatalf("no aggregation happened: %+v", res)
	}
	if res.AllocsPerOp != 0 {
		t.Fatalf("empty loop allocated: %+v", res)
	}

	skip := Bench{Name: "skipper", Fn: func(b *testing.B) { b.Skip("nope") }}
	if res := collectOne(skip, 2); !res.Skipped {
		t.Fatalf("skipping benchmark not marked Skipped: %+v", res)
	}
}

// TestReportStamp pins the host stamp: Collect's fields appear in the
// JSON under their names, and Stamp marks what an older report lacks.
func TestReportStamp(t *testing.T) {
	rep := Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 2,
		Kernel: "vex", NumCPU: 2, CPUModel: "Xeon"}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"gomaxprocs":2,"kernel":"vex","num_cpu":2,"cpu_model":"Xeon",`) {
		t.Fatalf("stamp fields missing: %s", got)
	}
	if s := rep.Stamp(); s != `go1.24.0 gomaxprocs=2 num_cpu=2 kernel=vex cpu="Xeon"` {
		t.Fatalf("Stamp() = %s", s)
	}
	old := Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 1}
	if s := old.Stamp(); s != `go1.24.0 gomaxprocs=1 num_cpu=? kernel=? cpu="?"` {
		t.Fatalf("Stamp() of an unstamped report = %s", s)
	}
}
