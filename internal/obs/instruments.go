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
		Run:      NewRunMetrics(reg).WithClock(clock),
	}
}

// Span opens a tracer span; inert on a nil observer.
func (o *Observer) Span(proc, track, cat, name string) Span {
	if o == nil {
		return Span{}
	}
	return o.Tracer.Span(proc, track, cat, name)
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
// across the layers: mf engines bump the update/epoch counters, ps feeds
// the phase and epoch histograms, the comm observer feeds the transfer
// counters, and core sets the sim gauges.
type RunMetrics struct {
	// Updates counts applied rating updates; Epochs counts engine epochs.
	Updates *Counter
	Epochs  *Counter
	// EpochSeconds and EvalSeconds distribute per-epoch training and RMSE
	// evaluation wall time.
	EpochSeconds *Histogram
	EvalSeconds  *Histogram
	// EngineEpochSeconds distributes individual engine Epoch calls (one
	// worker's local pass), as opposed to the cluster-wide EpochSeconds.
	EngineEpochSeconds *Histogram
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

	// clock times engine epochs (nil disables engine-side timing).
	clock func() float64
}

// NewRunMetrics registers the standard run instruments on r.
func NewRunMetrics(r *Registry) *RunMetrics {
	m := &RunMetrics{
		Updates:            r.Counter("train/updates_total", "rating updates applied by all engines"),
		Epochs:             r.Counter("train/engine_epochs_total", "engine Epoch calls completed"),
		EpochSeconds:       MustHistogram(r, "train/epoch_seconds", "cluster epoch wall time", DurationBuckets),
		EvalSeconds:        MustHistogram(r, "train/eval_seconds", "held-out RMSE evaluation wall time", DurationBuckets),
		EngineEpochSeconds: MustHistogram(r, "train/engine_epoch_seconds", "single-engine local epoch wall time", DurationBuckets),
		BusBytes:           r.Counter("comm/bus_bytes_total", "payload bytes crossing the worker-server channel"),
		Copies:             r.Counter("comm/copies_total", "end-to-end memory copies of transfer payloads"),
		Retries:            r.Counter("comm/retries_total", "failed transfer attempts absorbed by retry"),
		Transfers:          r.Counter("comm/transfers_total", "pull/push operations completed"),
		TransferErrors:     r.Counter("comm/transfer_errors_total", "pull/push operations that failed after retries"),
		WireBytes:          r.Counter("comm/wire_bytes_total", "octets actually crossing the network, headers included"),
		Frames:             r.Counter("comm/frames_total", "hccmf-wire frames sent and received"),
		Handshakes:         r.Counter("comm/handshakes_total", "connections dialled and handshaken"),
		NetSeconds:         MustHistogram(r, "comm/net_seconds", "wire operation latency", DurationBuckets),
		Evictions:          r.Counter("ps/evictions_total", "workers evicted by fault tolerance"),
		Rebalances:         r.Counter("schedule/rebalances_total", "adaptive epoch-boundary re-shards performed"),
		ScheduleGain:       r.Gauge("schedule/predicted_gain", "latest predicted relative makespan gain of a re-solve"),
	}
	for p := Pull; p <= Sync; p++ {
		m.Phase[p] = MustHistogram(r, "ps/phase_seconds/"+p.String(),
			"per-worker "+p.String()+" phase wall time", DurationBuckets)
	}
	return m
}

// WithClock sets the clock engine-side timing uses and returns m (nil
// passes through).
func (m *RunMetrics) WithClock(clock func() float64) *RunMetrics {
	if m != nil {
		m.clock = clock
	}
	return m
}

// ObserveEpoch feeds one cluster-wide epoch duration; no-op on nil.
func (m *RunMetrics) ObserveEpoch(seconds float64) {
	if m == nil {
		return
	}
	m.EpochSeconds.Observe(seconds)
}

// ObserveEval feeds one RMSE evaluation duration; no-op on nil.
func (m *RunMetrics) ObserveEval(seconds float64) {
	if m == nil {
		return
	}
	m.EvalSeconds.Observe(seconds)
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

// ObservePhase feeds one phase duration; no-op on nil or out-of-range p.
func (m *RunMetrics) ObservePhase(p Phase, seconds float64) {
	if m == nil || p < Pull || p > Sync {
		return
	}
	m.Phase[p].Observe(seconds)
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

// Clock exposes the observer clock (seconds); nil when timing is disabled.
func (m *RunMetrics) Clock() func() float64 {
	if m == nil {
		return nil
	}
	return m.clock
}

// EngineMetrics is the slice of RunMetrics the mf engines see: update and
// epoch counters and the engine epoch histogram. The engines call
// EpochStart/EpochDone around each local pass; with a nil bundle both are
// free function calls that touch nothing.
type EngineMetrics struct {
	updates *Counter
	epochs  *Counter
	seconds *Histogram
	clock   func() float64
}

// EngineMetrics derives the engine bundle (nil in → nil out).
func (m *RunMetrics) EngineMetrics() *EngineMetrics {
	if m == nil {
		return nil
	}
	return &EngineMetrics{updates: m.Updates, epochs: m.Epochs, seconds: m.EngineEpochSeconds, clock: m.clock}
}

// EpochStart reads the engine clock (0 when timing is disabled).
func (m *EngineMetrics) EpochStart() float64 {
	if m == nil || m.clock == nil {
		return 0
	}
	return m.clock()
}

// EpochDone records one finished engine epoch: the updates applied and,
// when the clock is enabled, the epoch duration.
func (m *EngineMetrics) EpochDone(start float64, updates int64) {
	if m == nil {
		return
	}
	m.updates.Add(updates)
	m.epochs.Inc()
	if m.clock != nil {
		m.seconds.Observe(m.clock() - start)
	}
}
