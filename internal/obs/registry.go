// Package obs is HCC-MF's observability layer: a typed metrics registry
// (counters, gauges, fixed-bucket histograms), a structured span tracer,
// and exporters (human report, versioned JSON, Chrome trace_event). It is
// the runtime lens on the quantities the paper's evaluation tables report —
// updates/s, per-phase time, utilization — while a run is in flight.
//
// Design constraints, in order:
//
//   - Zero dependencies: stdlib only, like the rest of the module.
//   - Allocation-conscious hot path: metric updates are single atomic
//     operations (histograms add one bounded bucket scan), and span
//     recording writes into a preallocated ring buffer, so timing a phase
//     allocates nothing (TestObserverSpanFeedsHistogram).
//   - Snapshot-on-read: collection never blocks writers; exporters take a
//     point-in-time copy under the registry lock while the atomic cells
//     keep absorbing updates.
//   - Clock injection: obs owns the wall clock (WallClock). Simulated-
//     platform packages (ps, comm — see the simtime analyzer) never read
//     time directly; they record against whatever clock the Tracer was
//     built with, so the determinism invariant of DESIGN.md §8 holds.
//
// All metric and span methods are nil-receiver safe: uninstrumented runs
// pass nil bundles and the call sites stay unconditional.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, updated with one atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver or negative n
// (counters are monotone; deltas come from instrumented code, not users).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 cell holding the latest value of some level quantity
// (simulated seconds, utilization, busy fraction).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reports the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is lock-free: one bounded scan to find the bucket, one atomic
// bucket increment, one atomic count increment and a CAS loop for the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram validates bounds (the Registry is the only constructor).
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("obs: histogram bound %d is NaN", i)
		}
		if i > 0 && own[i-1] >= b {
			return nil, fmt.Errorf("obs: histogram bounds not ascending at %d (%v >= %v)", i, own[i-1], b)
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}, nil
}

// Observe records one sample. NaN samples are dropped (they would poison
// the sum); +Inf lands in the overflow bucket. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean reports Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// DurationBuckets is the default bound set for second-valued histograms:
// roughly logarithmic from 10µs to 5 minutes, wide enough for both kernel
// epochs and full-run evaluation passes.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metric is one registered instrument.
type metric struct {
	name, help string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

func (m *metric) kind() string {
	switch {
	case m.counter != nil:
		return "counter"
	case m.gauge != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a name-keyed set of instruments. Registration takes the
// lock; the returned handles are lock-free. Registering a name twice
// returns the existing instrument (so layers can share counters), but a
// kind mismatch panics: two subsystems fighting over one name with
// different types is a wiring bug, never runtime input.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) lookup(name, help, kind string) *metric {
	m, ok := r.byName[name]
	if !ok {
		m = &metric{name: name, help: help}
		r.byName[name] = m
		r.ordered = append(r.ordered, m)
		return m
	}
	if m.kind() != kind {
		// lint:invariant re-registering a metric name as a different kind is instrumentation wiring broken at build time, never data-dependent.
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, m.kind(), kind))
	}
	return m
}

// Counter registers (or retrieves) the named counter. On a nil Registry
// it returns a nil *Counter, itself a no-op — an uninstrumented run needs
// no branches at the call sites.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "counter")
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or retrieves) the named gauge. On a nil Registry it
// returns a nil *Gauge, itself a no-op.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "gauge")
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or retrieves) the named histogram with the given
// ascending bucket bounds (DurationBuckets is the usual choice). A second
// registration ignores bounds and returns the existing histogram. On a
// nil Registry it returns a nil *Histogram, itself a no-op.
func (r *Registry) Histogram(name, help string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "histogram")
	if m.hist == nil {
		h, err := newHistogram(bounds)
		if err != nil {
			return nil, err
		}
		m.hist = h
	}
	return m.hist, nil
}

// MustHistogram is Histogram for static bound sets known good at compile
// time (DurationBuckets and friends).
func MustHistogram(r *Registry, name, help string, bounds []float64) *Histogram {
	h, err := r.Histogram(name, help, bounds)
	if err != nil {
		// lint:invariant bounds passed here are package-level constants already validated by tests; failure is a build-time bug.
		panic(err)
	}
	return h
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf for the
	// overflow bucket (marshalled as the string "+Inf", see export.go).
	UpperBound float64 `json:"le"`
	// Count is the number of samples in this bucket (not cumulative).
	Count int64 `json:"count"`
}

// MetricSnapshot is one instrument's point-in-time state.
type MetricSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Help string `json:"help,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets carry histogram readings.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every instrument's current state, sorted by name. The
// copy is taken under the registry lock but reads the atomic cells without
// stopping writers, so a snapshot is a consistent *per-metric* view.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Kind: m.kind(), Help: m.help}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		case m.hist != nil:
			s.Count = m.hist.Count()
			s.Sum = m.hist.Sum()
			s.Buckets = make([]Bucket, len(m.hist.counts))
			for i := range m.hist.counts {
				ub := math.Inf(1)
				if i < len(m.hist.bounds) {
					ub = m.hist.bounds[i]
				}
				s.Buckets[i] = Bucket{UpperBound: ub, Count: m.hist.counts[i].Load()}
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Format renders the snapshot as a human-readable report, one instrument
// per line (histograms add count/mean and non-empty buckets).
func (r *Registry) Format() string {
	var b strings.Builder
	for _, s := range r.Snapshot() {
		switch s.Kind {
		case "counter":
			fmt.Fprintf(&b, "%-44s %14.0f\n", s.Name, s.Value)
		case "gauge":
			fmt.Fprintf(&b, "%-44s %14.6g\n", s.Name, s.Value)
		case "histogram":
			mean := 0.0
			if s.Count > 0 {
				mean = s.Sum / float64(s.Count)
			}
			fmt.Fprintf(&b, "%-44s count %-8d sum %-12.6g mean %.6g\n", s.Name, s.Count, s.Sum, mean)
			for _, bk := range s.Buckets {
				if bk.Count == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %-42s le %-10.4g %d\n", "", bk.UpperBound, bk.Count)
			}
		}
	}
	return b.String()
}
