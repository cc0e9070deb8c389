package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Event is one traced interval (or instant, when Start == End) on a named
// track. Proc groups tracks into Chrome-trace processes, which is how the
// two time domains stay apart: "real" events carry wall-clock seconds,
// "sim" events carry simengine seconds.
type Event struct {
	// Proc is the process group ("real", "sim").
	Proc string
	// Track is the row the event renders on (worker name, "server").
	Track string
	// Cat is the subsystem category ("ps", "mf", "comm", "simengine").
	Cat string
	// Name is the event label ("pull", "epoch", "evict", ...).
	Name string
	// Start and End are seconds on the event's clock domain.
	Start, End float64
	// Arg is an optional numeric payload, labelled by ArgName
	// ("bytes", "epoch", ...). ArgName == "" means no payload.
	ArgName string
	Arg     float64
}

// Duration reports End-Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// ProcReal and ProcSim are the two process groups HCC-MF emits: real
// execution on the wall clock, and the simulated platform on simengine's
// virtual clock. Chrome trace export keeps them as separate processes so
// the differing time domains cannot be misread as one axis.
const (
	ProcReal = "real"
	ProcSim  = "sim"
)

// WallClock returns a monotonic wall-clock reading in seconds since the
// returned function was created. It is the only wall-clock source the
// instrumentation layers use: simulated-platform packages receive it (or a
// virtual clock) via Tracer injection and never read time themselves —
// the simtime analyzer enforces that they cannot even name this function.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Tracer records events into a fixed-capacity ring buffer: recording is
// one mutex-guarded struct store, no allocation, and when the buffer wraps
// the oldest events are overwritten (Dropped counts them). That bounds
// memory on arbitrarily long runs and keeps instrumented hot loops off the
// allocator.
type Tracer struct {
	clock func() float64

	mu      sync.Mutex
	ring    []Event
	next    int   // next write slot
	filled  bool  // ring has wrapped at least once
	dropped int64 // events overwritten by wrapping
}

// DefaultTraceCapacity bounds a tracer's event memory: 1<<16 events is
// ~6 MiB and covers hundreds of epochs of per-worker phase spans.
const DefaultTraceCapacity = 1 << 16

// NewTracer creates a tracer with the given ring capacity (≤0 selects
// DefaultTraceCapacity) reading the given clock (nil selects WallClock).
func NewTracer(capacity int, clock func() float64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if clock == nil {
		clock = WallClock()
	}
	return &Tracer{clock: clock, ring: make([]Event, capacity)}
}

// Now reads the tracer's clock (0 on nil).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// record stores one event in the ring.
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if t.filled {
		t.dropped++
	}
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// Emit records a fully specified event (explicit times — the entry point
// for replaying simulated timelines). No-op on nil.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.record(ev)
}

// Instant records a zero-duration marker (retry, eviction) at the current
// clock reading, with an optional numeric payload.
func (t *Tracer) Instant(proc, track, cat, name, argName string, arg float64) {
	if t == nil {
		return
	}
	now := t.clock()
	t.record(Event{Proc: proc, Track: track, Cat: cat, Name: name,
		Start: now, End: now, ArgName: argName, Arg: arg})
}

// Span starts an interval at the current clock reading. The returned Span
// is a value (no allocation); call End (or EndArg) to record it.
func (t *Tracer) Span(proc, track, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, proc: proc, track: track, cat: cat, name: name, start: t.clock()}
}

// Span is an open interval handle. The zero value is inert: End on a span
// from a nil tracer records nothing and reports 0.
type Span struct {
	t     *Tracer
	proc  string
	track string
	cat   string
	name  string
	start float64
	// hist, when non-nil, also receives the span's seconds at End (see
	// Observer.Span).
	hist *Histogram
}

// End records the span and reports its duration in clock seconds.
func (s Span) End() float64 { return s.EndArg("", 0) }

// EndArg is End with a numeric payload attached (e.g. bytes moved).
func (s Span) EndArg(argName string, arg float64) float64 {
	if s.t == nil {
		return 0
	}
	end := s.t.clock()
	s.t.record(Event{Proc: s.proc, Track: s.track, Cat: s.cat, Name: s.name,
		Start: s.start, End: end, ArgName: argName, Arg: arg})
	s.hist.Observe(end - s.start)
	return end - s.start
}

// Events returns a copy of the recorded events in chronological recording
// order (oldest surviving event first). Nil tracers return nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped reports how many events the ring has overwritten (0 on nil).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Tracks lists the distinct (proc, track) pairs of the given events in
// first-appearance order — the row inventory of an export.
func Tracks(events []Event) []string {
	seen := map[string]bool{}
	var out []string
	for _, ev := range events {
		key := ev.Proc + "/" + ev.Track
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// String renders an event for debugging.
func (e Event) String() string {
	return fmt.Sprintf("%s/%s %s.%s [%.6f,%.6f)", e.Proc, e.Track, e.Cat, e.Name, e.Start, e.End)
}
