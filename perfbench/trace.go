package main

import (
	"os"
	"sort"
	"sync"
	"time"

	"hccmf/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public API call. Parent links a span to the call it happened inside; all
// spans of one job share Run.
type span struct {
	ID, Parent int
	Run        string
	// Layer is the module the call enters ("dataset", "ps", "mf", ...);
	// Name the call; Track the worker it ran for ("" for the job thread).
	Layer, Name, Track string
	Start, End         float64
}

// tracer keeps a job's spans in memory. A nil *tracer records nothing, so
// the untraced job runs the same code with no wrappers installed.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	// ID 0 is "no parent"; the slice index of span id is id-1.
	return &tracer{run: run, t0: time.Now()}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name, track string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Layer: layer, Name: name, Track: track, Start: t.now(), End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// add records an already-timed span (the transport observer reports a
// transfer once it has finished).
func (t *tracer) add(layer, name, track string, parent int, start, end float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Layer: layer, Name: name, Track: track, Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes splits the root span's wall time exactly among layers: every
// instant goes to the innermost spans open at that instant, shared equally
// when several run at once (two workers computing in parallel), so the
// shares sum to the root's duration. Without concurrency a layer's share
// is its spans' durations minus the parts their children cover. The
// root's own share is the remainder no layer accounts for.
func selfTimes(spans []span, root int) (byLayer map[string]float64, remainder float64) {
	byLayer = map[string]float64{}
	var cuts []float64
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Float64s(cuts)
	rootSpan := spans[root-1]
	hasOpenChild := make([]bool, len(spans))
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo || lo < rootSpan.Start || hi > rootSpan.End {
			continue
		}
		open := func(s span) bool { return s.Start <= lo && s.End >= hi }
		for j := range hasOpenChild {
			hasOpenChild[j] = false
		}
		for _, s := range spans {
			if s.Parent != 0 && open(s) {
				hasOpenChild[s.Parent-1] = true
			}
		}
		var inner []span
		for j, s := range spans {
			if open(s) && !hasOpenChild[j] {
				inner = append(inner, s)
			}
		}
		share := (hi - lo) / float64(len(inner))
		for _, s := range inner {
			if s.ID == root {
				remainder += share
			} else {
				byLayer[s.Layer] += share
			}
		}
	}
	return byLayer, remainder
}

// writeChromeTrace exports spans through the repository's obs exporter:
// one Chrome-trace process per run id, one row per track, the parent id as
// the event argument.
func writeChromeTrace(path string, spans []span) error {
	events := make([]obs.Event, len(spans))
	for i, s := range spans {
		track := s.Track
		if track == "" {
			track = "job"
		}
		events[i] = obs.Event{Proc: s.Run, Track: track, Cat: s.Layer, Name: s.Layer + "." + s.Name,
			Start: s.Start, End: s.End, ArgName: "parent", Arg: float64(s.Parent)}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
