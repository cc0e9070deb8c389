package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a fixed mixed-domain event set: real-execution spans and
// instants plus a simulated-timeline span.
func goldenEvents() []Event {
	return []Event{
		{Proc: ProcReal, Track: "gpu0", Cat: "ps", Name: "pull", Start: 0, End: 0.001, ArgName: "bytes", Arg: 4096},
		{Proc: ProcReal, Track: "gpu0", Cat: "ps", Name: "compute", Start: 0.001, End: 0.005},
		{Proc: ProcReal, Track: "server", Cat: "ps", Name: "sync", Start: 0.005, End: 0.006, ArgName: "epoch", Arg: 0},
		{Proc: ProcReal, Track: "server", Cat: "ps", Name: "evict", Start: 0.0065, End: 0.0065, ArgName: "epoch", Arg: 1},
		{Proc: ProcSim, Track: "cpu0", Cat: "simengine", Name: "computing", Start: 0, End: 2.5},
	}
}

// TestChromeTraceGolden pins the exported document byte for byte: the
// format is consumed by external tools (Perfetto), so accidental drift is
// a break, not a refactor.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrometrace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed checks the structural invariants Perfetto
// relies on: valid JSON, microsecond timestamps, metadata naming every
// pid/tid, X events with durations and i events without.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["schema"] != TraceSchema {
		t.Fatalf("schema = %q, want %q", doc.OtherData["schema"], TraceSchema)
	}
	named := map[[2]int]bool{}
	var xs, is, ms int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			ms++
			named[[2]int{ev.PID, ev.TID}] = true
		case "X":
			xs++
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Fatalf("X event %q without positive dur", ev.Name)
			}
		case "i":
			is++
			if ev.Dur != nil {
				t.Fatalf("instant %q carries dur", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if xs != 4 || is != 1 {
		t.Fatalf("got %d X and %d i events, want 4 and 1", xs, is)
	}
	if ms != 5 { // 2 process_name + 3 thread_name
		t.Fatalf("got %d metadata events, want 5", ms)
	}
	// The pull span is 1ms = 1000µs.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "pull" {
			if math.Abs(*ev.Dur-1000) > 1e-9 {
				t.Fatalf("pull dur = %vµs, want 1000µs", *ev.Dur)
			}
			if ev.Args["bytes"] != 4096.0 {
				t.Fatalf("pull args = %v", ev.Args)
			}
		}
	}
}

func TestTimelineBands(t *testing.T) {
	span := func(worker string, p Phase, start, end float64) Event {
		return Event{Proc: ProcSim, Track: worker, Cat: "simengine", Name: p.String(), Start: start, End: end}
	}
	events := []Event{
		// w0: pull [0,1), compute [1,3), push [3,4) → busy 4 of 5.
		span("w0", Pull, 0, 1),
		span("w0", Compute, 1, 3),
		span("w0", Push, 3, 4),
		// w1: two overlapping compute spans (async streams) [0,2) and
		// [1,3): union is 3, not 4 — overlap must not double-count.
		span("w1", Compute, 0, 2),
		span("w1", Compute, 1, 3),
	}
	bands := TimelineBands(events, 5)
	if len(bands) != 2 {
		t.Fatalf("bands = %d, want 2", len(bands))
	}
	w0, w1 := bands[0], bands[1]
	if w0.Worker != "w0" || w0.Busy != 4 || w0.Compute != 2 || w0.Idle != 1 || w0.Utilization != 0.8 {
		t.Fatalf("w0 band = %+v", w0)
	}
	if w1.Worker != "w1" || w1.Busy != 3 || w1.Compute != 3 || w1.Idle != 2 || w1.Utilization != 0.6 {
		t.Fatalf("w1 band = %+v", w1)
	}
	// end ≤ 0 falls back to the latest span end (3 for w1's last span →
	// overall 4 from w0's push).
	bands = TimelineBands(events, 0)
	if bands[0].Utilization != 1 {
		t.Fatalf("w0 utilization over timeline end = %v, want 1", bands[0].Utilization)
	}
	if len(TimelineBands(nil, 1)) != 0 || TimelineBands(nil, 0) != nil {
		t.Fatal("empty inputs must yield no bands")
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs  [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 1}}, 1},
		{[][2]float64{{0, 1}, {2, 3}}, 2},
		{[][2]float64{{0, 2}, {1, 3}}, 3},
		{[][2]float64{{1, 3}, {0, 2}, {2, 2.5}}, 3},
		{[][2]float64{{0, 5}, {1, 2}}, 5},
	}
	for i, c := range cases {
		if got := unionLength(c.ivs); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("case %d: unionLength = %v, want %v", i, got, c.want)
		}
	}
}
