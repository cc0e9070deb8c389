package obs

import (
	"strings"
	"sync"
	"testing"
)

// fakeClock is a deterministic manual clock for tracer tests.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) read() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestTracerSpanAndInstant(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8, clk.read)
	sp := tr.Span(ProcReal, "gpu0", "ps", "pull")
	clk.advance(0.5)
	if d := sp.EndArg("bytes", 1024); d != 0.5 {
		t.Fatalf("span duration = %v, want 0.5", d)
	}
	clk.advance(0.25)
	tr.Instant(ProcReal, "server", "ps", "evict", "epoch", 3)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Name != "pull" || evs[0].Start != 0 || evs[0].End != 0.5 ||
		evs[0].ArgName != "bytes" || evs[0].Arg != 1024 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Name != "evict" || evs[1].Start != 0.75 || evs[1].End != 0.75 || evs[1].Arg != 3 {
		t.Fatalf("instant event = %+v", evs[1])
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestTracerRingWraps(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(4, clk.read)
	for i := 0; i < 10; i++ {
		clk.advance(1)
		tr.Instant(ProcReal, "w", "t", "tick", "i", float64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want ring capacity 4", len(evs))
	}
	// Oldest surviving first: ticks 6, 7, 8, 9.
	for i, ev := range evs {
		if want := float64(6 + i); ev.Arg != want {
			t.Fatalf("event %d arg = %v, want %v", i, ev.Arg, want)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Span(ProcReal, "w", "c", "n")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	tr.Instant(ProcReal, "w", "c", "n", "", 0)
	tr.Emit(Event{})
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
}

// An observer span records its event and observes the same seconds into
// its histogram, once, without allocating; a nil histogram only traces.
func TestObserverSpanFeedsHistogram(t *testing.T) {
	clk := &fakeClock{}
	o := NewObserver(1<<10, clk.read)
	h := o.Run.Phase[Compute]
	sp := o.Span(ProcReal, "w", "ps", "compute", h)
	clk.advance(0.5)
	if d := sp.EndArg("slice", 2); d != 0.5 {
		t.Fatalf("span duration = %v, want 0.5", d)
	}
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("histogram count=%d sum=%v, want 1 and 0.5", h.Count(), h.Sum())
	}
	o.Span(ProcReal, "w", "ps", "plain", nil).End()
	if evs := o.Tracer.Events(); len(evs) != 2 || evs[0].Arg != 2 || evs[1].Name != "plain" {
		t.Fatalf("events = %+v", evs)
	}
	if h.Count() != 1 {
		t.Fatalf("a span with no histogram observed into one: count=%d", h.Count())
	}
	if n := testing.AllocsPerRun(100, func() {
		o.Span(ProcReal, "w", "ps", "compute", h).End()
	}); n != 0 {
		t.Fatalf("observer span allocs/op = %v, want 0", n)
	}
}

func TestTracerConcurrentRecording(t *testing.T) {
	tr := NewTracer(1<<12, WallClock())
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Span(ProcReal, "w", "c", "op").End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()) + int(tr.Dropped()); got != goroutines*each {
		t.Fatalf("recorded+dropped = %d, want %d", got, goroutines*each)
	}
}

func TestTracks(t *testing.T) {
	evs := []Event{
		{Proc: ProcSim, Track: "b"},
		{Proc: ProcReal, Track: "a"},
		{Proc: ProcSim, Track: "b"},
		{Proc: ProcReal, Track: "c"},
	}
	got := Tracks(evs)
	want := []string{"real/a", "real/c", "sim/b"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("tracks = %v, want %v", got, want)
	}
}

func TestWallClockMonotone(t *testing.T) {
	clk := WallClock()
	a := clk()
	b := clk()
	if a < 0 || b < a {
		t.Fatalf("wall clock not monotone: %v then %v", a, b)
	}
}
