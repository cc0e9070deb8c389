package ps

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// buildProblem generates a low-rank training matrix and cuts it into
// row-grid shards with the given weights.
func buildProblem(t testing.TB, m, n, nnz int, weights []float64, seed uint64) (*sparse.COO, []WorkerConf) {
	t.Helper()
	rng := sparse.NewRand(seed)
	const rank = 4
	pf := make([]float32, m*rank)
	qf := make([]float32, n*rank)
	for i := range pf {
		pf[i] = 0.5 + rng.Float32()
	}
	for i := range qf {
		qf[i] = 0.5 + rng.Float32()
	}
	full := sparse.NewCOO(m, n, nnz)
	for c := 0; c < nnz; c++ {
		u := rng.Intn(m)
		i := rng.Intn(n)
		var dot float32
		for f := 0; f < rank; f++ {
			dot += pf[u*rank+f] * qf[i*rank+f]
		}
		full.Add(int32(u), int32(i), dot+0.05*(rng.Float32()-0.5))
	}
	full.Shuffle(rng)

	// Only the cut is taken from RowShards; each shard gathers its entries
	// in the shuffled order, which the golden hashes pin.
	slices, _, err := sparse.RowShards(full, weights)
	if err != nil {
		t.Fatal(err)
	}
	confs := make([]WorkerConf, len(slices))
	for i, sl := range slices {
		shard := sparse.NewCOO(m, n, int(sl.NNZ))
		for _, e := range full.Entries {
			if int(e.U) >= sl.Lo && int(e.U) < sl.Hi {
				shard.Entries = append(shard.Entries, e)
			}
		}
		confs[i] = WorkerConf{
			Name:   workerName(i),
			Engine: mf.Serial{},
			Shard:  shard,
			RowLo:  sl.Lo, RowHi: sl.Hi,
			Weight: weights[i],
		}
	}
	return full, confs
}

func workerName(i int) string { return string(rune('a'+i)) + "-worker" }

func defaultConfig(m, n int) Config {
	return Config{
		M: m, N: n, K: 8,
		Hyper:      mf.HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005},
		Transport:  comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 4}),
		Strategy:   comm.Strategy{Encoding: comm.FP32, Streams: 1},
		MeanRating: 4,
		Seed:       7,
	}
}

func TestClusterConvergesMultiWorker(t *testing.T) {
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.3, 0.3, 0.4}, 1)
	cfg := defaultConfig(120, 80)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	before := mf.RMSE(c.Snapshot(), full.Entries)
	if err := c.Train(30, nil); err != nil {
		t.Fatal(err)
	}
	after := mf.RMSE(c.Snapshot(), full.Entries)
	if after >= before {
		t.Fatalf("RMSE rose %v → %v", before, after)
	}
	if after > 0.5 {
		t.Fatalf("poor convergence: RMSE %v", after)
	}
	if err := c.Global().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQOnlyStrategyConverges(t *testing.T) {
	full, confs := buildProblem(t, 120, 40, 6000, []float64{0.5, 0.5}, 2)
	cfg := defaultConfig(120, 40)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(30, nil); err != nil {
		t.Fatal(err)
	}
	if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.5 {
		t.Fatalf("Q-only convergence poor: %v", rmse)
	}
	// After the final epoch the *global* model must be complete (P pushed).
	if rmse := mf.RMSE(c.Global(), full.Entries); rmse > 0.5 {
		t.Fatalf("global model incomplete after final push: %v", rmse)
	}
}

func TestQOnlyMovesLessData(t *testing.T) {
	_, confs := buildProblem(t, 200, 20, 3000, []float64{0.5, 0.5}, 3)
	run := func(strategy comm.Strategy) int64 {
		cfg := defaultConfig(200, 20)
		cfg.Strategy = strategy
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(10, nil); err != nil {
			t.Fatal(err)
		}
		return c.CommStats().BusBytes
	}
	pq := run(comm.Strategy{Encoding: comm.FP32, Streams: 1})
	q := run(comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1})
	halfQ := run(comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1})
	if q >= pq/2 {
		t.Fatalf("Q-only moved %d vs P&Q %d; want large reduction on tall matrix", q, pq)
	}
	if halfQ >= q {
		t.Fatalf("FP16 moved %d vs FP32 %d", halfQ, q)
	}
}

// Every strategy moves exactly the bytes comm.Strategy.RunBytes charges,
// at one slice and at four: slicing Q changes when the transfers happen,
// not what they carry, and the naive strategy pulls P whatever the slice
// count.
func TestBusBytesMatchStrategyAccounting(t *testing.T) {
	_, confs := buildProblem(t, 100, 30, 2000, []float64{0.5, 0.5}, 4)
	for _, strat := range []struct {
		name  string
		strat comm.Strategy
	}{
		{"P&Q", comm.Strategy{Encoding: comm.FP32}},
		{"Q", comm.Strategy{QOnly: true, Encoding: comm.FP32}},
		{"half-Q", comm.Strategy{QOnly: true, Encoding: comm.FP16}},
	} {
		for _, streams := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/streams=%d", strat.name, streams), func(t *testing.T) {
				if streams > 1 {
					skipAsyncUnderRace(t)
				}
				cfg := defaultConfig(100, 30)
				cfg.Strategy = strat.strat
				cfg.Strategy.Streams = streams
				c, err := New(cfg, confs)
				if err != nil {
					t.Fatal(err)
				}
				const epochs = 5
				if err := c.Train(epochs, nil); err != nil {
					t.Fatal(err)
				}
				var want int64
				for _, w := range confs {
					want += cfg.Strategy.RunBytes(cfg.K, cfg.M, cfg.N, w.RowHi-w.RowLo, epochs)
				}
				if got := c.CommStats().BusBytes; got != want {
					t.Fatalf("BusBytes = %d, strategy accounting says %d", got, want)
				}
			})
		}
	}
}

// A naive-strategy worker running four streams starts epoch 0 from the
// server's initial P, pulled before any stream computes, not from its
// zeroed replica. The streams' compute is a no-op that checks the replica,
// so nothing writes P concurrently and the test also runs under -race.
func TestAsyncNaiveWorkerStartsFromServerP(t *testing.T) {
	_, confs := buildProblem(t, 100, 30, 2000, []float64{0.5, 0.5}, 4)
	cfg := defaultConfig(100, 30)
	cfg.Strategy = comm.Strategy{Encoding: comm.FP32, Streams: 4}
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	initial := append([]float32(nil), c.Global().P...)
	var calls atomic.Int64
	check := func(ws *workerState, sj int, _ mf.HyperParams) int {
		calls.Add(1)
		for i, v := range ws.local.P {
			if math.Float32bits(v) != math.Float32bits(initial[i]) {
				t.Errorf("%s slice %d: P[%d] = %v, want the server's initial %v", ws.conf.Name, sj, i, v, initial[i])
				return 0
			}
		}
		return 0
	}
	if err := c.epochWith(0, 2, check); err != nil {
		t.Fatal(err)
	}
	if got, want := calls.Load(), int64(len(confs)*4); got != want {
		t.Fatalf("%d stream computes, want %d", got, want)
	}
}

func TestMessageTransportEquivalentMath(t *testing.T) {
	full, confs := buildProblem(t, 80, 60, 3000, []float64{0.5, 0.5}, 5)
	runRMSE := func(tr comm.Transport) float64 {
		cfg := defaultConfig(80, 60)
		cfg.Transport = tr
		cfg.MeanRating = full.MeanRating()
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(15, nil); err != nil {
			t.Fatal(err)
		}
		return mf.RMSE(c.Snapshot(), full.Entries)
	}
	a := runRMSE(comm.MustNew(comm.Spec{Kind: comm.KindShared, Workers: 2}))
	b := runRMSE(comm.MustNew(comm.Spec{Kind: comm.KindMessage}))
	if a != b {
		t.Fatalf("COMM (%v) and COMM-P (%v) must compute identical models", a, b)
	}
}

func TestFP16TransportStillConverges(t *testing.T) {
	full, confs := buildProblem(t, 100, 50, 4000, []float64{0.4, 0.6}, 6)
	cfg := defaultConfig(100, 50)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(30, nil); err != nil {
		t.Fatal(err)
	}
	if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.5 {
		t.Fatalf("fp16 transport broke convergence: RMSE %v", rmse)
	}
}

func TestObserverCalledEveryEpoch(t *testing.T) {
	_, confs := buildProblem(t, 50, 30, 500, []float64{1}, 7)
	cfg := defaultConfig(50, 30)
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	err = c.Train(4, func(e int, model *mf.Factors) {
		epochs = append(epochs, e)
		if model == nil {
			t.Error("nil model in observer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 4 || epochs[3] != 3 {
		t.Fatalf("observer epochs = %v", epochs)
	}
}

func TestNewValidation(t *testing.T) {
	_, confs := buildProblem(t, 50, 30, 500, []float64{0.5, 0.5}, 8)
	good := defaultConfig(50, 30)

	bad := good
	bad.M = 0
	if _, err := New(bad, confs); err == nil {
		t.Error("zero M accepted")
	}
	bad = good
	bad.Transport = nil
	if _, err := New(bad, confs); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Error("no workers accepted")
	}

	broken := make([]WorkerConf, len(confs))
	copy(broken, confs)
	broken[0].Engine = nil
	if _, err := New(good, broken); err == nil {
		t.Error("nil engine accepted")
	}

	copy(broken, confs)
	broken[0].Weight = 0
	if _, err := New(good, broken); err == nil {
		t.Error("zero weight accepted")
	}

	copy(broken, confs)
	broken[0].RowHi = broken[0].RowLo
	if _, err := New(good, broken); err == nil {
		t.Error("empty row range accepted")
	}

	// Overlapping ranges.
	copy(broken, confs)
	broken[1].RowLo = broken[0].RowLo
	broken[1].Shard = broken[0].Shard
	if _, err := New(good, broken); err == nil {
		t.Error("overlapping row ranges accepted")
	}

	// Entry outside row range.
	copy(broken, confs)
	outside := broken[0].Shard.Clone()
	outside.Entries[0].U = int32(broken[0].RowHi)
	if int(outside.Entries[0].U) >= good.M {
		outside.Entries[0].U = int32(good.M - 1)
	}
	if int(outside.Entries[0].U) < broken[0].RowHi {
		t.Skip("cannot construct out-of-range entry for this cut")
	}
	broken[0].Shard = outside
	if _, err := New(good, broken); err == nil {
		t.Error("out-of-range shard entry accepted")
	}
}

func TestRunEpochValidation(t *testing.T) {
	_, confs := buildProblem(t, 50, 30, 500, []float64{1}, 9)
	c, err := New(defaultConfig(50, 30), confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpoch(-1, 5); err == nil {
		t.Error("negative epoch accepted")
	}
	if err := c.RunEpoch(5, 5); err == nil {
		t.Error("epoch ≥ total accepted")
	}
	if err := c.RunEpoch(0, 0); err == nil {
		t.Error("zero total accepted")
	}
}

func TestWeightsNormalised(t *testing.T) {
	full, confs := buildProblem(t, 60, 40, 1000, []float64{2, 6}, 10)
	cfg := defaultConfig(60, 40)
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, ws := range c.workers {
		sum += ws.conf.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestWorkersCount(t *testing.T) {
	_, confs := buildProblem(t, 50, 30, 500, []float64{0.5, 0.5}, 11)
	c, err := New(defaultConfig(50, 30), confs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 2 {
		t.Fatalf("Workers = %d", c.Workers())
	}
}
