package ps

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
)

// mustFaulty wraps comm.NewFaulty for tests whose literal specs are valid
// by construction.
func mustFaulty(inner comm.Transport, spec comm.FaultSpec) comm.Transport {
	f, err := comm.NewFaulty(inner, spec)
	if err != nil {
		panic(err)
	}
	return f
}

// chaosTransport is the canonical fault-tolerant stack: shared memory with
// seeded fault injection, wrapped in bounded retries (no real sleeping).
func chaosTransport(rate float64, seed uint64, attempts int) comm.Transport {
	faulty := mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{
		Transient: rate * 0.8,
		Truncate:  rate * 0.2,
		Seed:      seed,
	})
	return comm.NewRetrying(faulty, comm.RetryPolicy{Attempts: attempts})
}

// Training under seeded transient faults with retry enabled must complete
// with zero run-level errors, bounded retries, and (since a retried
// in-memory transfer is eventually exact) the very model the fault-free
// run computes.
func TestChaosTransientFaultRates(t *testing.T) {
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.3, 0.3, 0.4}, 41)
	run := func(rate float64) (float64, comm.TransferStats) {
		cfg := defaultConfig(120, 80)
		cfg.MeanRating = full.MeanRating()
		cfg.Transport = chaosTransport(rate, 1234, 12)
		cfg.EvictOnFailure = true
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(15, nil); err != nil {
			t.Fatalf("rate %v: run failed: %v", rate, err)
		}
		if ev := c.Evictions(); len(ev) != 0 {
			t.Fatalf("rate %v: unexpected evictions %+v", rate, ev)
		}
		return mf.RMSE(c.Snapshot(), full.Entries), c.CommStats()
	}
	base, baseStats := run(0)
	if baseStats.Retries != 0 {
		t.Fatalf("fault-free run accounted %d retries", baseStats.Retries)
	}
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		rmse, stats := run(rate)
		if diff := math.Abs(rmse-base) / base; diff > 0.02 {
			t.Fatalf("rate %v: RMSE %v vs fault-free %v (%.1f%% off)", rate, rmse, base, diff*100)
		}
		if stats.Retries == 0 {
			t.Fatalf("rate %v: no retries accounted", rate)
		}
		// Retry budget must stay bounded: nowhere near attempts × transfers.
		transfers := int64(3 /*workers*/ * 15 /*epochs*/ * 4 /*pull+push ×2 matrices*/)
		if int64(stats.Retries) > 12*transfers {
			t.Fatalf("rate %v: %d retries for ~%d transfers", rate, stats.Retries, transfers)
		}
	}
}

// A worker whose link is permanently down exhausts its retry budget and is
// evicted; the survivors absorb its rows and the run completes with a
// model that covers all of P. Eviction settles at the epoch boundary for
// every strategy and slice count: in the epoch the worker dies only the
// survivors' shards train, and from the next epoch the heir trains the
// dead worker's shard too. With four slices the coordinator must also
// release the dead worker's undelivered slices so the survivors' pushes
// still fold.
func TestEvictionReassignsRows(t *testing.T) {
	const m, n, epochs = 120, 80, 25
	for _, mode := range []struct {
		name  string
		strat comm.Strategy
	}{
		{"naive", comm.Strategy{Encoding: comm.FP32}},
		{"q-only", comm.Strategy{QOnly: true, Encoding: comm.FP32}},
	} {
		for _, streams := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/streams=%d", mode.name, streams), func(t *testing.T) {
				if streams > 1 {
					skipAsyncUnderRace(t)
				}
				full, confs := buildProblem(t, m, n, 6000, []float64{0.3, 0.3, 0.4}, 42)
				confs[1].Transport = comm.NewRetrying(
					mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{Transient: 1, Seed: 5}),
					comm.RetryPolicy{Attempts: 3})
				cfg := defaultConfig(m, n)
				cfg.Strategy = mode.strat
				cfg.Strategy.Streams = streams
				cfg.MeanRating = full.MeanRating()
				cfg.EvictOnFailure = true
				cfg.Obs = obs.NewObserver(0, nil)
				c, err := New(cfg, confs)
				if err != nil {
					t.Fatal(err)
				}
				updates := func() int64 { return counterValue(t, cfg.Obs.Registry, "train/updates_total") }
				if err := c.RunEpoch(0, epochs); err != nil {
					t.Fatalf("epoch 0 did not survive a dead worker: %v", err)
				}
				if got, want := updates(), int64(confs[0].Shard.NNZ()+confs[2].Shard.NNZ()); got != want {
					t.Fatalf("train/updates_total = %d after the death epoch, want the survivors' %d", got, want)
				}
				if err := c.RunEpoch(1, epochs); err != nil {
					t.Fatal(err)
				}
				if got, want := updates(), int64(confs[0].Shard.NNZ()+confs[2].Shard.NNZ()+full.NNZ()); got != want {
					t.Fatalf("train/updates_total = %d after epoch 1, want %d (+ every train rating)", got, want)
				}
				for e := 2; e < epochs; e++ {
					if err := c.RunEpoch(e, epochs); err != nil {
						t.Fatal(err)
					}
				}
				ev := c.Evictions()
				if len(ev) != 1 || ev[0].Worker != confs[1].Name || ev[0].Epoch != 0 || ev[0].InheritedBy != confs[0].Name {
					t.Fatalf("evictions = %+v", ev)
				}
				if c.Workers() != 2 {
					t.Fatalf("workers = %d after eviction", c.Workers())
				}
				// Survivor ranges must cover [0, M) with no overlap.
				covered := make([]int, m)
				for _, ws := range c.workers {
					for r := ws.conf.RowLo; r < ws.conf.RowHi; r++ {
						covered[r]++
					}
				}
				for r, n := range covered {
					if n != 1 {
						t.Fatalf("row %d owned by %d workers after eviction", r, n)
					}
				}
				if err := c.Global().Validate(); err != nil {
					t.Fatal(err)
				}
				// The final model must cover the evicted rows: training on the
				// full entry set still converges.
				if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.5 {
					t.Fatalf("model incomplete after eviction: RMSE %v", rmse)
				}
				if rmse := mf.RMSE(c.Global(), full.Entries); rmse > 0.5 {
					t.Fatalf("global model incomplete after eviction: RMSE %v", rmse)
				}
			})
		}
	}
}

// Without the opt-in, a dead worker still aborts the run (the seed
// behaviour), and the error names the worker.
func TestDeadWorkerAbortsWithoutOptIn(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 1000, []float64{0.5, 0.5}, 44)
	confs[1].Transport = comm.NewRetrying(
		mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{Transient: 1, Seed: 7}),
		comm.RetryPolicy{Attempts: 2})
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(5, nil); err == nil {
		t.Fatal("dead worker did not abort without EvictOnFailure")
	}
	if len(c.Evictions()) != 0 {
		t.Fatal("eviction recorded without opt-in")
	}
}

// When every worker is dead there is nobody to degrade to: the run must
// fail with a clear error rather than spin.
func TestAllWorkersDeadFails(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 1000, []float64{1}, 45)
	confs[0].Transport = comm.NewRetrying(
		mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{Transient: 1, Seed: 8}),
		comm.RetryPolicy{Attempts: 2})
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	cfg.EvictOnFailure = true
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(5, nil); err == nil {
		t.Fatal("run with zero surviving workers reported success")
	}
}

// Retries consumed by transfers that eventually fail are still accounted,
// so the cost model sees the waste of the dead link.
func TestEvictionAccountsFailedRetries(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 1000, []float64{0.5, 0.5}, 46)
	confs[1].Transport = comm.NewRetrying(
		mustFaulty(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}), comm.FaultSpec{Transient: 1, Seed: 9}),
		comm.RetryPolicy{Attempts: 4})
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	cfg.EvictOnFailure = true
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(5, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.CommStats().Retries; got != 3 {
		t.Fatalf("Retries = %d, want 3 (one exhausted budget of 4 attempts)", got)
	}
}

// killable delegates to a live transport until kill is set, then fails
// every transfer: a link that dies between two epochs.
type killable struct {
	comm.Transport
	kill atomic.Bool
}

var errLinkDown = errors.New("link down")

func (k *killable) Pull(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	if k.kill.Load() {
		return comm.TransferStats{}, errLinkDown
	}
	return k.Transport.Pull(dst, src, x)
}

func (k *killable) Push(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	if k.kill.Load() {
		return comm.TransferStats{}, errLinkDown
	}
	return k.Transport.Push(dst, src, x)
}

// An heir whose multi-thread FPSGD engine already laid out its own shard
// must train the ratings it inherits. The worker dies in epoch 1, so the
// heir's block layout predates the merge. Eviction settles at the epoch
// boundary: after epoch 1 the inherited rows are the dead worker's
// salvaged replica, and every one with a rating moves in epoch 2.
func TestEvictionHeirTrainsMergedShard(t *testing.T) {
	const m, n = 120, 80
	full, confs := buildProblem(t, m, n, 8000, []float64{0.5, 0.5}, 43)
	link := &killable{Transport: comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4})}
	for i := range confs {
		confs[i].Engine = &mf.FPSGD{Threads: 2}
	}
	confs[1].Transport = link
	cfg := defaultConfig(m, n)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	cfg.EvictOnFailure = true
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(0, 3); err != nil {
		t.Fatal(err)
	}
	dead := c.workers[1]
	lo, hi := dead.conf.RowLo, dead.conf.RowHi
	before := append([]float32(nil), dead.local.P[lo*cfg.K:hi*cfg.K]...)
	rated := make(map[int]bool)
	for _, e := range dead.conf.Shard.Entries {
		rated[int(e.U)] = true
	}

	link.kill.Store(true)
	if err := c.RunEpoch(1, 3); err != nil {
		t.Fatal(err)
	}
	if ev := c.Evictions(); len(ev) != 1 || ev[0].Worker != confs[1].Name {
		t.Fatalf("evictions = %+v", ev)
	}
	heir := c.workers[0]
	if got, want := len(heir.conf.Shard.Entries), len(full.Entries); got != want {
		t.Fatalf("heir shard holds %d ratings, want %d", got, want)
	}
	sameRow := func(r int) bool {
		row := heir.local.P[r*cfg.K : (r+1)*cfg.K]
		old := before[(r-lo)*cfg.K : (r-lo+1)*cfg.K]
		for j := range row {
			if math.Float32bits(row[j]) != math.Float32bits(old[j]) {
				return false
			}
		}
		return true
	}
	for r := lo; r < hi; r++ {
		if !sameRow(r) {
			t.Fatalf("inherited row %d changed in the epoch its owner died", r)
		}
	}
	if err := c.RunEpoch(2, 3); err != nil {
		t.Fatal(err)
	}
	for r := lo; r < hi; r++ {
		if rated[r] && sameRow(r) {
			t.Fatalf("inherited row %d was not trained by the heir", r)
		}
	}
}
