package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Add(-5) // negative deltas are dropped: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter after negative add = %d, want 42", got)
	}
	if same := r.Counter("a/total", "help"); same != c {
		t.Fatal("re-registration did not return the existing counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var m *RunMetrics
	m.CountTransfer(TransferSample{BusBytes: 10, Copies: 1, Retries: 1, Frames: 2, Failed: true})
	var o *Observer
	if d := o.Span(ProcReal, "w", "c", "n", h).End(); d != 0 {
		t.Fatalf("nil observer span duration = %v", d)
	}
	o.Instant(ProcReal, "w", "c", "n", "", 0)
	if o.RunMetrics() != nil {
		t.Fatal("nil observer must yield nil run metrics")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h, err := r.Histogram("h", "", []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Bounds are inclusive upper bounds: a sample exactly on a bound lands
	// in that bound's bucket, not the next.
	for _, v := range []float64{0, 1} { // → bucket le=1
		h.Observe(v)
	}
	h.Observe(1.5)         // → le=2
	h.Observe(2)           // → le=2
	h.Observe(4)           // → le=4
	h.Observe(4.0001)      // → +Inf
	h.Observe(math.Inf(1)) // → +Inf
	h.Observe(math.NaN())  // dropped
	h.Observe(-math.Pi)    // negative values land in the first bucket
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8 (NaN must be dropped)", got)
	}
	wantBuckets := []int64{3, 2, 1, 2}
	for i, want := range wantBuckets {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
	wantSum := 0 + 1 + 1.5 + 2 + 4 + 4.0001 - math.Pi
	if got := h.Sum(); !math.IsInf(got, 1) {
		t.Fatalf("sum = %v, want +Inf (an observed +Inf flows into the sum); finite part would be %v", got, wantSum)
	}
}

func TestHistogramFiniteSumAndMean(t *testing.T) {
	r := NewRegistry()
	h := MustHistogram(r, "h", "", []float64{10})
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if got := h.Sum(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("sum = %v, want 6", got)
	}
	if got := h.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %v, want 2", got)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	r := NewRegistry()
	for i, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{1, math.NaN()},
	} {
		if _, err := r.Histogram("bad", "", bounds); err == nil {
			t.Fatalf("case %d: bounds %v accepted, want error", i, bounds)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge must panic (wiring bug)")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotSortedAndIsolated(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z", "").Set(1)
	r.Counter("a", "").Add(2)
	MustHistogram(r, "m", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[1].Name != "m" || snap[2].Name != "z" {
		t.Fatalf("snapshot order = %+v, want a, m, z", snap)
	}
	if snap[0].Kind != "counter" || snap[0].Value != 2 {
		t.Fatalf("counter snapshot = %+v", snap[0])
	}
	if snap[1].Kind != "histogram" || snap[1].Count != 1 || len(snap[1].Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", snap[1])
	}
	// Mutations after the snapshot must not show in the copy.
	r.Counter("a", "").Add(100)
	if snap[0].Value != 2 {
		t.Fatal("snapshot aliased live counter state")
	}
}

// TestConcurrentHammering drives every instrument kind from many
// goroutines; run under -race (verify.sh does) this doubles as the data-
// race proof for the atomic hot path, and the totals prove no update was
// lost.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := MustHistogram(r, "h", "", []float64{0.25, 0.5, 0.75})
	const (
		goroutines = 16
		perG       = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i%4) * 0.25)
				if i%64 == 0 {
					r.Snapshot() // snapshot-on-read must not block or race writers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var bucketSum int64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", bucketSum, goroutines*perG)
	}
	wantSum := float64(goroutines) * (0 + 0.25 + 0.5 + 0.75) * perG / 4
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v (CAS accumulation lost updates)", got, wantSum)
	}
}
