package obs

import "fmt"

// Observer bundles the instruments one training/simulation run reports
// through: a registry for metrics, a tracer for events, and the pre-built
// RunMetrics the runtime layers update. A nil *Observer (and every bundle
// reached through it) disables instrumentation with no call-site branching
// — all methods are nil-safe.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
	Run      *RunMetrics
}

// NewObserver builds a registry, a tracer of the given capacity reading
// clock (nil → WallClock), and the standard run metric set.
func NewObserver(traceCapacity int, clock func() float64) *Observer {
	if clock == nil {
		clock = WallClock()
	}
	reg := NewRegistry()
	return &Observer{
		Registry: reg,
		Tracer:   NewTracer(traceCapacity, clock),
		Run:      NewRunMetrics(reg),
	}
}

// Span opens a tracer span whose End also observes its seconds into h (nil
// h: the span is only traced); inert on a nil observer.
func (o *Observer) Span(proc, track, cat, name string, h *Histogram) Span {
	if o == nil {
		return Span{}
	}
	s := o.Tracer.Span(proc, track, cat, name)
	s.hist = h
	return s
}

// Instant records a zero-duration marker; no-op on a nil observer.
func (o *Observer) Instant(proc, track, cat, name, argName string, arg float64) {
	if o == nil {
		return
	}
	o.Tracer.Instant(proc, track, cat, name, argName, arg)
}

// RunMetrics reaches the run bundle (nil on a nil observer — every method
// of the nil bundle is itself a no-op).
func (o *Observer) RunMetrics() *RunMetrics {
	if o == nil {
		return nil
	}
	return o.Run
}

// Phase labels one segment of the epoch loop. Its String form names the
// simulator's phase spans and the ps/phase_seconds histograms.
type Phase int

const (
	// Pull is the worker's feature download.
	Pull Phase = iota
	// Compute is the worker's SGD pass over its shard.
	Compute
	// Push is the worker's feature upload.
	Push
	// Sync is the server folding a worker's push into the global model.
	Sync
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Pull:
		return "pull"
	case Compute:
		return "computing"
	case Push:
		return "push"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// RunMetrics is the standard instrument set of one end-to-end run, shared
// across the layers: ps counts updates and feeds the phase and epoch
// histograms through its spans, the comm observer feeds the transfer
// counters, and core sets the sim gauges and times evaluation.
type RunMetrics struct {
	// Updates counts the rating updates the compute phases applied.
	Updates *Counter
	// EpochSeconds and EvalSeconds distribute per-epoch training and RMSE
	// evaluation wall time.
	EpochSeconds *Histogram
	EvalSeconds  *Histogram
	// Phase distributes per-worker phase wall time, indexed by Phase
	// (pull, compute, push, sync).
	Phase [4]*Histogram
	// Transfer accounting (mirrors comm.TransferStats, plus attempt and
	// failure counts the stats struct does not carry). BusBytes stays the
	// logical payload volume on every transport; the wire-level counters
	// (frames, handshakes, octets) move only when a transfer actually
	// crossed a socket.
	BusBytes       *Counter
	Copies         *Counter
	Retries        *Counter
	Transfers      *Counter
	TransferErrors *Counter
	WireBytes      *Counter
	Frames         *Counter
	Handshakes     *Counter
	// NetSeconds distributes wire operation latency; it is fed only for
	// transfers that produced frames, so in-process runs leave it empty.
	NetSeconds *Histogram
	// Evictions counts workers removed by fault tolerance.
	Evictions *Counter
	// Rebalances counts adaptive epoch-boundary re-shards, and
	// ScheduleGain holds the rebalancer's latest predicted relative
	// makespan gain (the value the hysteresis threshold gates on).
	Rebalances   *Counter
	ScheduleGain *Gauge
}

// NewRunMetrics registers the standard run instruments on r.
func NewRunMetrics(r *Registry) *RunMetrics {
	m := &RunMetrics{
		Updates:        r.Counter("train/updates_total", "rating updates applied by the compute phases"),
		EpochSeconds:   MustHistogram(r, "train/epoch_seconds", "cluster epoch wall time", DurationBuckets),
		EvalSeconds:    MustHistogram(r, "train/eval_seconds", "held-out RMSE evaluation wall time", DurationBuckets),
		BusBytes:       r.Counter("comm/bus_bytes_total", "payload bytes crossing the worker-server channel"),
		Copies:         r.Counter("comm/copies_total", "end-to-end memory copies of transfer payloads"),
		Retries:        r.Counter("comm/retries_total", "failed transfer attempts absorbed by retry"),
		Transfers:      r.Counter("comm/transfers_total", "pull/push operations completed"),
		TransferErrors: r.Counter("comm/transfer_errors_total", "pull/push operations that failed after retries"),
		WireBytes:      r.Counter("comm/wire_bytes_total", "octets actually crossing the network, headers included"),
		Frames:         r.Counter("comm/frames_total", "hccmf-wire frames sent and received"),
		Handshakes:     r.Counter("comm/handshakes_total", "connections dialled and handshaken"),
		NetSeconds:     MustHistogram(r, "comm/net_seconds", "wire operation latency", DurationBuckets),
		Evictions:      r.Counter("ps/evictions_total", "workers evicted by fault tolerance"),
		Rebalances:     r.Counter("schedule/rebalances_total", "adaptive epoch-boundary re-shards performed"),
		ScheduleGain:   r.Gauge("schedule/predicted_gain", "latest predicted relative makespan gain of a re-solve"),
	}
	for p := Pull; p <= Sync; p++ {
		m.Phase[p] = MustHistogram(r, "ps/phase_seconds/"+p.String(),
			"per-worker "+p.String()+" phase wall time", DurationBuckets)
	}
	return m
}

// CountEviction accounts one evicted worker; no-op on nil.
func (m *RunMetrics) CountEviction() {
	if m == nil {
		return
	}
	m.Evictions.Inc()
}

// CountRebalance accounts one adaptive re-shard; no-op on nil.
func (m *RunMetrics) CountRebalance() {
	if m == nil {
		return
	}
	m.Rebalances.Inc()
}

// SetScheduleGain records the rebalancer's latest predicted gain; no-op
// on nil.
func (m *RunMetrics) SetScheduleGain(gain float64) {
	if m == nil {
		return
	}
	m.ScheduleGain.Set(gain)
}

// TransferSample is one observed logical transfer, retries already folded
// in by the observation point (outside comm.Retrying) so nothing is
// double-counted. It mirrors comm.TransferStats field by field without
// importing it — obs imports no other hccmf package.
type TransferSample struct {
	// BusBytes is the logical payload volume (params × encoding width).
	BusBytes int64
	// WireBytes is the octets that actually crossed a socket (0 in-process).
	WireBytes  int64
	Copies     int
	Retries    int
	Frames     int
	Handshakes int
	// Seconds is the observed operation latency (0 when the observer has no
	// clock).
	Seconds float64
	// Failed marks a transfer that erred even after retries.
	Failed bool
}

// CountTransfer accounts one completed pull/push/sync. The wire histogram
// moves only when the transfer produced frames, so shared-memory runs keep
// comm/net_seconds empty. No-op on nil.
func (m *RunMetrics) CountTransfer(s TransferSample) {
	if m == nil {
		return
	}
	m.BusBytes.Add(s.BusBytes)
	m.Copies.Add(int64(s.Copies))
	m.Retries.Add(int64(s.Retries))
	m.Transfers.Inc()
	if s.Failed {
		m.TransferErrors.Inc()
	}
	if s.Frames > 0 {
		m.WireBytes.Add(s.WireBytes)
		m.Frames.Add(int64(s.Frames))
		m.Handshakes.Add(int64(s.Handshakes))
		m.NetSeconds.Observe(s.Seconds)
	}
}
