package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// Chrome trace_event export: the JSON Object Format of the Trace Event
// specification, loadable in chrome://tracing and Perfetto. Every Event
// becomes a complete ("ph":"X") event; instants (Start == End) become
// "ph":"i". Processes group the time domains (ProcReal wall-clock seconds,
// ProcSim simengine seconds — see Event.Proc), tracks become named
// threads, and timestamps are microseconds as the format requires.

// TraceSchema tags the exported document in otherData.
const TraceSchema = "hccmf-obs/trace/v1"

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// WriteChromeTrace writes events as a Chrome trace_event JSON document.
// Process and thread ids are assigned deterministically (sorted proc and
// track names), so identical event sets yield byte-identical documents —
// pinned by the golden test.
func WriteChromeTrace(w io.Writer, events []Event) error {
	procs := map[string]int{}
	tids := map[[2]string]int{}
	var procNames []string
	trackNames := map[string][]string{}
	for _, ev := range events {
		if _, ok := procs[ev.Proc]; !ok {
			procs[ev.Proc] = 0
			procNames = append(procNames, ev.Proc)
		}
		key := [2]string{ev.Proc, ev.Track}
		if _, ok := tids[key]; !ok {
			tids[key] = 0
			trackNames[ev.Proc] = append(trackNames[ev.Proc], ev.Track)
		}
	}
	sort.Strings(procNames)
	doc := chromeDoc{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"schema": TraceSchema},
	}
	for pi, proc := range procNames {
		procs[proc] = pi + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pi + 1,
			Args: map[string]any{"name": proc},
		})
		tracks := trackNames[proc]
		sort.Strings(tracks)
		for ti, track := range tracks {
			tids[[2]string{proc, track}] = ti + 1
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pi + 1, TID: ti + 1,
				Args: map[string]any{"name": track},
			})
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			TS:   ev.Start * 1e6,
			PID:  procs[ev.Proc],
			TID:  tids[[2]string{ev.Proc, ev.Track}],
		}
		if ev.End > ev.Start {
			d := (ev.End - ev.Start) * 1e6
			ce.Ph, ce.Dur = "X", &d
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		if ev.ArgName != "" {
			ce.Args = map[string]any{ev.ArgName: ev.Arg}
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Band is one worker's busy/idle decomposition over a timeline — the
// utilization-band view of the paper's Figure 5: Busy is the union of the
// worker's spans (overlapping async streams are not double-counted),
// Compute the union of its compute spans, Idle the remainder of [0, End].
type Band struct {
	Worker string `json:"worker"`
	// Busy is seconds covered by at least one span.
	Busy float64 `json:"busy"`
	// Compute is seconds covered by at least one compute span.
	Compute float64 `json:"compute"`
	// Idle is End minus Busy.
	Idle float64 `json:"idle"`
	// Utilization is Busy/End — the per-device analogue of the Table 4
	// metric (metrics.Utilization reports the cluster-level actual/ideal).
	Utilization float64 `json:"utilization"`
}

// TimelineBands decomposes phase spans (one track per worker) into
// per-worker utilization bands over [0, end] (end ≤ 0 uses the latest span
// end). Workers are sorted by name.
func TimelineBands(events []Event, end float64) []Band {
	if end <= 0 {
		for _, ev := range events {
			end = math.Max(end, ev.End)
		}
	}
	if end <= 0 {
		return nil
	}
	type intervals struct{ all, compute [][2]float64 }
	byWorker := map[string]*intervals{}
	var workers []string
	for _, ev := range events {
		iv, ok := byWorker[ev.Track]
		if !ok {
			iv = &intervals{}
			byWorker[ev.Track] = iv
			workers = append(workers, ev.Track)
		}
		iv.all = append(iv.all, [2]float64{ev.Start, ev.End})
		if ev.Name == Compute.String() {
			iv.compute = append(iv.compute, [2]float64{ev.Start, ev.End})
		}
	}
	sort.Strings(workers)
	out := make([]Band, 0, len(workers))
	for _, w := range workers {
		iv := byWorker[w]
		busy := unionLength(iv.all)
		b := Band{
			Worker:      w,
			Busy:        busy,
			Compute:     unionLength(iv.compute),
			Idle:        end - busy,
			Utilization: busy / end,
		}
		if b.Idle < 0 {
			b.Idle = 0
		}
		out = append(out, b)
	}
	return out
}

// unionLength measures the total length covered by a set of intervals.
func unionLength(ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total := 0.0
	curLo, curHi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + (curHi - curLo)
}
