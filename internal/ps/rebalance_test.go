package ps

import (
	"math"
	"testing"
	"time"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/schedule"
)

// driftMeasure is a deterministic Measure hook: worker 0 slows down with
// every epoch while the rest hold a constant rate, so the adaptive policy
// has a straggler to chase without any wall-clock involvement.
func driftMeasure(epoch int, loads []schedule.WorkerLoad) []float64 {
	secs := make([]float64, len(loads))
	for i, l := range loads {
		rate := 1e6
		if l.Name == workerName(0) {
			rate = 1e6 / (1 + 0.4*float64(epoch+1))
		}
		secs[i] = float64(l.Updates) / rate
	}
	return secs
}

func adaptiveConfig(m, n int) Config {
	cfg := defaultConfig(m, n)
	cfg.Schedule = schedule.Config{
		Policy:     schedule.Throughput,
		Hysteresis: 0.10,
		MinEpochs:  2,
		Measure:    driftMeasure,
	}
	return cfg
}

// The adaptive loop must actually move load off the measured straggler and
// still converge to a good model.
func TestRebalanceShiftsLoadOffStraggler(t *testing.T) {
	for _, mode := range []struct {
		name  string
		strat comm.Strategy
	}{
		{"naive", comm.Strategy{Encoding: comm.FP32, Streams: 1}},
		{"q-only", comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			full, confs := buildProblem(t, 160, 90, 8000, []float64{0.25, 0.25, 0.25, 0.25}, 11)
			cfg := adaptiveConfig(160, 90)
			cfg.Strategy = mode.strat
			cfg.MeanRating = full.MeanRating()
			c, err := New(cfg, confs)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Train(14, nil); err != nil {
				t.Fatal(err)
			}
			rebs := c.Rebalances()
			if len(rebs) == 0 {
				t.Fatal("no rebalance fired against a 5.6x straggler drift")
			}
			for _, r := range rebs {
				var sum float64
				for _, s := range r.Shares {
					if s <= 0 {
						t.Fatalf("epoch %d: non-positive share %v", r.Epoch, r.Shares)
					}
					sum += s
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("epoch %d: shares sum %v", r.Epoch, sum)
				}
			}
			// Worker 0 is the straggler: its final achieved share must be
			// well below its initial quarter.
			last := rebs[len(rebs)-1]
			if last.Shares[0] >= 0.25 {
				t.Fatalf("straggler share did not shrink: %v", last.Shares)
			}
			// Row coverage must stay a disjoint partition of [0, M).
			covered := make([]int, 160)
			for _, ws := range c.workers {
				for r := ws.conf.RowLo; r < ws.conf.RowHi; r++ {
					covered[r]++
				}
			}
			for r, cnt := range covered {
				if cnt != 1 {
					t.Fatalf("row %d owned by %d workers after resharding", r, cnt)
				}
			}
			// Every entry must still be trained by exactly one worker.
			total := 0
			for _, ws := range c.workers {
				total += len(ws.conf.Shard.Entries)
			}
			if total != len(full.Entries) {
				t.Fatalf("resharding lost entries: %d of %d", total, len(full.Entries))
			}
			if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.5 {
				t.Fatalf("adaptive run convergence poor: RMSE %v", rmse)
			}
			if rmse := mf.RMSE(c.Global(), full.Entries); rmse > 0.5 {
				t.Fatalf("global model incomplete after resharding: %v", rmse)
			}
		})
	}
}

// Golden determinism: with a deterministic Measure hook the whole adaptive
// run — decisions, re-shards, and the trained model — is a pure function
// of the seed. Two fresh runs must agree bit for bit.
func TestRebalanceGoldenDeterminism(t *testing.T) {
	run := func() (*mf.Factors, []Rebalance) {
		full, confs := buildProblem(t, 160, 90, 8000, []float64{0.25, 0.25, 0.25, 0.25}, 11)
		cfg := adaptiveConfig(160, 90)
		cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
		cfg.MeanRating = full.MeanRating()
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(14, nil); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot(), c.Rebalances()
	}
	a, ra := run()
	b, rb := run()
	if len(ra) == 0 {
		t.Fatal("golden run performed no rebalances")
	}
	if len(ra) != len(rb) {
		t.Fatalf("rebalance counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Epoch != rb[i].Epoch || len(ra[i].Shares) != len(rb[i].Shares) {
			t.Fatalf("rebalance %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
		for j := range ra[i].Shares {
			if ra[i].Shares[j] != rb[i].Shares[j] {
				t.Fatalf("rebalance %d share %d differs: %v vs %v", i, j, ra[i].Shares[j], rb[i].Shares[j])
			}
		}
	}
	for i := range a.P {
		if math.Float32bits(a.P[i]) != math.Float32bits(b.P[i]) {
			t.Fatalf("P[%d] differs across seeded runs: %x vs %x", i, a.P[i], b.P[i])
		}
	}
	for i := range a.Q {
		if math.Float32bits(a.Q[i]) != math.Float32bits(b.Q[i]) {
			t.Fatalf("Q[%d] differs across seeded runs: %x vs %x", i, a.Q[i], b.Q[i])
		}
	}
}

// A worker behind a comm.Faulty delay injector really is slower on the
// wall clock; with an observer supplying real timing the adaptive loop
// must shrink its assignment. This is the one rebalance test that reads
// the machine clock, so it asserts direction, not exact shares.
func TestRebalanceStragglerWallClock(t *testing.T) {
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.25, 0.25, 0.25, 0.25}, 21)
	// Worker 0 pays a 2ms spike on every transfer; the compute of ~1500
	// entries at k=8 is microseconds, so it dominates the epoch.
	confs[0].Transport = mustFaulty(
		comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}),
		comm.FaultSpec{Delay: 1, DelayFor: 2 * time.Millisecond, Seed: 9})
	cfg := defaultConfig(120, 80)
	cfg.MeanRating = full.MeanRating()
	cfg.Obs = obs.NewObserver(0, nil)
	cfg.Schedule = schedule.Config{
		Policy:     schedule.Throughput,
		Hysteresis: 0.10,
		MinEpochs:  1,
		MinShare:   0.02,
	}
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	before := len(confs[0].Shard.Entries)
	if err := c.Train(8, nil); err != nil {
		t.Fatal(err)
	}
	rebs := c.Rebalances()
	if len(rebs) == 0 {
		t.Fatal("no rebalance against a delay-injected straggler")
	}
	after := len(c.workers[0].conf.Shard.Entries)
	if after >= before {
		t.Fatalf("straggler shard grew: %d → %d entries", before, after)
	}
	// The counter must agree with the record.
	reg := cfg.Obs.Registry
	if got := counterValue(t, reg, "schedule/rebalances_total"); got != int64(len(rebs)) {
		t.Fatalf("schedule/rebalances_total = %d, want %d", got, len(rebs))
	}
}

// An eviction forces the next barrier's re-solve past hysteresis and
// cooldown, so the heir's doubled hull is split up again promptly.
func TestEvictionForcesRebalance(t *testing.T) {
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.3, 0.3, 0.4}, 31)
	confs[1].Transport = comm.NewRetrying(
		mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{Transient: 1, Seed: 5}),
		comm.RetryPolicy{Attempts: 2})
	cfg := defaultConfig(120, 80)
	cfg.MeanRating = full.MeanRating()
	cfg.EvictOnFailure = true
	cfg.Schedule = schedule.Config{
		Policy:     schedule.Throughput,
		Hysteresis: 0.9, // high enough that only the forced step can fire
		MinEpochs:  100,
		Measure: func(epoch int, loads []schedule.WorkerLoad) []float64 {
			secs := make([]float64, len(loads))
			for i, l := range loads {
				secs[i] = float64(l.Updates) / 1e6
			}
			return secs
		},
	}
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(10, nil); err != nil {
		t.Fatal(err)
	}
	if ev := c.Evictions(); len(ev) != 1 {
		t.Fatalf("evictions = %+v", ev)
	}
	rebs := c.Rebalances()
	if len(rebs) != 1 {
		t.Fatalf("want exactly the forced rebalance, got %+v", rebs)
	}
	if !rebs[0].Forced {
		t.Fatalf("rebalance not marked forced: %+v", rebs[0])
	}
	// Forced or not, the re-shard equalises by measured throughput: with
	// uniform rates the survivors end up near 50/50 instead of the heir
	// keeping both shards.
	if s := rebs[0].Shares; math.Abs(s[0]-s[1]) > 0.2 {
		t.Fatalf("forced rebalance left survivors imbalanced: %v", s)
	}
	if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.5 {
		t.Fatalf("convergence poor after evict+rebalance: %v", rmse)
	}
}

// Async (staggered streams) runs must not re-shard: per-worker epoch
// timing does not isolate throughput when slices overlap.
func TestRebalanceSkipsAsyncMode(t *testing.T) {
	skipAsyncUnderRace(t)
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.5, 0.5}, 51)
	cfg := adaptiveConfig(120, 80)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 4}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(10, nil); err != nil {
		t.Fatal(err)
	}
	if rebs := c.Rebalances(); len(rebs) != 0 {
		t.Fatalf("async mode rebalanced: %+v", rebs)
	}
}

// A Throughput policy with neither an observer nor a Measure hook would
// leave every measured second 0, so no Step could ever re-shard: New
// refuses it, and accepts either source of timing.
func TestNewRejectsUntimedRebalancer(t *testing.T) {
	_, confs := buildProblem(t, 60, 40, 1000, []float64{0.5, 0.5}, 52)
	cfg := defaultConfig(60, 40)
	cfg.Schedule = schedule.Config{Policy: schedule.Throughput}
	if _, err := New(cfg, confs); err == nil {
		t.Fatal("New accepted a Throughput policy with no timing source")
	}
	cfg.Obs = &obs.Observer{}
	if _, err := New(cfg, confs); err == nil {
		t.Fatal("New accepted a Throughput policy with an observer that has no tracer")
	}
	cfg.Obs = obs.NewObserver(0, nil)
	if _, err := New(cfg, confs); err != nil {
		t.Fatalf("observer-timed rebalancer: %v", err)
	}
	cfg.Obs = nil
	cfg.Schedule.Measure = driftMeasure
	if _, err := New(cfg, confs); err != nil {
		t.Fatalf("Measure-timed rebalancer: %v", err)
	}
}

// counterValue reads one counter's value out of a registry dump.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return int64(s.Value)
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}
