package ps

import (
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/obs"
	"hccmf/internal/raceflag"
	"hccmf/internal/sparse"
)

// skipAsyncUnderRace: async streams share local P rows without locks by
// design (see async.go); the race detector rightly flags that, so these
// tests step aside under -race, mirroring the Hogwild engine tests.
func skipAsyncUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("async streams are intentionally lock-free; skipped under -race")
	}
}

func TestRatingSlicesCoverAndBalance(t *testing.T) {
	uniform := make([]int64, 10)
	for i := range uniform {
		uniform[i] = 5
	}
	zipf := make([]int64, 100)
	for i := range zipf {
		zipf[i] = int64(1000 / (i + 1))
	}
	cases := []struct {
		name   string
		counts []int64
		s      int
	}{
		{"uniform", uniform, 3},
		{"one-per-item", uniform, 10},
		{"zipf", zipf, 2},
		{"zipf-many", zipf, 7},
		{"one-stream", zipf, 1},
		{"zero-streams", uniform, 0},
		{"clamped-to-n", []int64{4, 1, 2}, 9},
		{"empty-columns", []int64{0, 0, 3, 0, 0, 0, 5, 0, 0, 2, 0, 0}, 3},
		{"no-ratings", make([]int64, 6), 4},
		{"all-in-one-column", []int64{0, 0, 0, 90, 0, 0, 0}, 3},
		{"streams-over-populated", []int64{0, 7, 0, 0, 9, 0, 0, 0}, 5},
	}
	for _, c := range cases {
		slices := ratingSlices(c.counts, c.s)
		n := len(c.counts)
		want := max(1, min(c.s, n))
		if len(slices) != want {
			t.Fatalf("%s: %d slices, want %d (s clamped to [1, %d])", c.name, len(slices), want, n)
		}
		if slices[0].lo != 0 || slices[len(slices)-1].hi != n {
			t.Fatalf("%s: slices do not cover [0, %d): %+v", c.name, n, slices)
		}
		var total, largest int64
		for _, v := range c.counts {
			total += v
			largest = max(largest, v)
		}
		for j, sl := range slices {
			if sl.hi <= sl.lo {
				t.Fatalf("%s: slice %d empty: %+v", c.name, j, sl)
			}
			if j > 0 && sl.lo != slices[j-1].hi {
				t.Fatalf("%s: gap or overlap before slice %d: %+v", c.name, j, slices)
			}
			var held int64
			for _, v := range c.counts[sl.lo:sl.hi] {
				held += v
			}
			if bound := total/int64(len(slices)) + largest; held > bound {
				t.Fatalf("%s: slice %d holds %d ratings, bound %d: %+v", c.name, j, held, bound, slices)
			}
		}
	}
}

func TestSliceChunksBucketByItem(t *testing.T) {
	// k = 2048 makes mf's 256 KiB Q tile 32 items wide, so each ~100-item
	// slice spans several tiles.
	const m, n, k = 60, 200, 2048
	_, confs := buildProblem(t, m, n, 3000, []float64{1}, 31)
	cfg := defaultConfig(m, n)
	cfg.K = k
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	coord := c.coordinator(2)
	ws := c.workers[0]
	chunks := ws.sliceChunks(coord)
	slices := coord.slices
	if len(chunks) != len(slices) {
		t.Fatalf("%d chunks for %d slices", len(chunks), len(slices))
	}
	want := make([]map[sparse.Rating]int, len(slices))
	for j := range want {
		want[j] = map[sparse.Rating]int{}
	}
	for _, e := range confs[0].Shard.Entries {
		j := 0
		for int(e.I) >= slices[j].hi {
			j++
		}
		want[j][e]++
	}
	for j, chunk := range chunks {
		// A permutation of the slice's shard entries.
		for _, e := range chunk {
			if int(e.I) < slices[j].lo || int(e.I) >= slices[j].hi {
				t.Fatalf("entry item %d escaped slice %d %+v", e.I, j, slices[j])
			}
			want[j][e]--
		}
		for e, d := range want[j] {
			if d != 0 {
				t.Fatalf("slice %d: entry %+v count off by %d", j, e, -d)
			}
		}
		// Tile-major: the chunk splits into (row, col)-sorted runs whose
		// column ranges are disjoint and ascending.
		runs := 1
		runLo, prevHi := chunk[0].I, int32(-1)
		runHi := chunk[0].I
		for i := 1; i < len(chunk); i++ {
			a, b := chunk[i-1], chunk[i]
			if b.U > a.U || (b.U == a.U && b.I >= a.I) {
				runLo, runHi = min(runLo, b.I), max(runHi, b.I)
				continue
			}
			if runLo <= prevHi {
				t.Fatalf("slice %d: run %d columns [%d, %d] overlap the previous run's (up to %d)", j, runs, runLo, runHi, prevHi)
			}
			prevHi, runLo, runHi = runHi, b.I, b.I
			runs++
		}
		if runLo <= prevHi {
			t.Fatalf("slice %d: last run columns [%d, %d] overlap the previous run's (up to %d)", j, runLo, runHi, prevHi)
		}
		if runs < 2 {
			t.Fatalf("slice %d %+v: one (row, col) run, want several 32-item tiles", j, slices[j])
		}
	}
	// Cached on second call.
	if &ws.sliceChunks(coord)[0] != &chunks[0] {
		t.Fatal("chunks not cached")
	}
}

// Under Zipf item popularity an item-count cut hands the hot head to
// stream 0; the rating-count cut must give the streams equal work.
func TestAsyncSlicesBalanceSkewedPopularity(t *testing.T) {
	spec, err := dataset.MovieLens20M.Scaled(0.005)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	train := d.Train
	slices, shards, err := sparse.RowShards(train, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	confs := make([]WorkerConf, len(shards))
	for i, sh := range shards {
		confs[i] = WorkerConf{Name: workerName(i), Engine: mf.Serial{}, Shard: sh,
			RowLo: slices[i].Lo, RowHi: slices[i].Hi, Weight: 0.5}
	}
	const k = 16
	cfg := defaultConfig(train.Rows, train.Cols)
	cfg.K = k
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	coord := c.coordinator(2)
	perStream := make([]int, len(coord.slices))
	for _, ws := range c.workers {
		for j, chunk := range ws.sliceChunks(coord) {
			perStream[j] += len(chunk)
		}
	}
	lo, hi := min(perStream[0], perStream[1]), max(perStream[0], perStream[1])
	if float64(hi-lo) > 0.1*float64(hi) {
		t.Fatalf("per-stream entries %v differ by more than 10%%", perStream)
	}
	// The same data cut by item count is badly skewed — the case above is
	// not balanced by accident.
	var head int
	for _, e := range train.Entries {
		if int(e.I) < train.Cols/2 {
			head++
		}
	}
	if 2*head < 3*(train.NNZ()-head) {
		t.Fatalf("head half of the items holds %d of %d ratings; want a skewed spec", head, train.NNZ())
	}
}

func TestAsyncEpochConverges(t *testing.T) {
	skipAsyncUnderRace(t)
	full, confs := buildProblem(t, 150, 90, 8000, []float64{0.4, 0.6}, 32)
	cfg := defaultConfig(150, 90)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 4}
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
		t.Fatalf("async training RMSE rose %v → %v", before, after)
	}
	if after > 0.6 {
		t.Fatalf("async convergence poor: %v", after)
	}
	// Final global model complete (P pushed on last epoch).
	if g := mf.RMSE(c.Global(), full.Entries); g > 0.6 {
		t.Fatalf("global model incomplete after async run: %v", g)
	}
	if err := c.Global().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Async streams train outside any engine, so ps counts their updates where
// each stream computes: every epoch applies the whole training set once,
// in one compute span per worker and stream.
func TestAsyncCountsUpdatesAndPhases(t *testing.T) {
	skipAsyncUnderRace(t)
	const epochs = 3
	full, confs := buildProblem(t, 120, 80, 6000, []float64{0.4, 0.6}, 35)
	for _, streams := range []int{2, 4} {
		cfg := defaultConfig(120, 80)
		cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: streams}
		cfg.MeanRating = full.MeanRating()
		cfg.Obs = obs.NewObserver(0, nil)
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(epochs, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := counterValue(t, cfg.Obs.Registry, "train/updates_total"), int64(epochs*full.NNZ()); got != want {
			t.Errorf("streams=%d: train/updates_total = %d, want %d (epochs × nnz)", streams, got, want)
		}
		if got, want := cfg.Obs.Run.Phase[obs.Compute].Count(), int64(epochs*len(confs)*streams); got != want {
			t.Errorf("streams=%d: compute phases = %d, want %d (epochs × workers × streams)", streams, got, want)
		}
	}
}

func TestAsyncMatchesSyncCommVolume(t *testing.T) {
	skipAsyncUnderRace(t)
	_, confs := buildProblem(t, 100, 60, 2000, []float64{0.5, 0.5}, 33)
	run := func(streams int) int64 {
		cfg := defaultConfig(100, 60)
		cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: streams}
		c, err := New(cfg, confs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Train(6, nil); err != nil {
			t.Fatal(err)
		}
		return c.CommStats().BusBytes
	}
	// Slicing the Q transfers must not change total bus traffic — the
	// whole point of Strategy 3 is overlap, not volume.
	if sync, async := run(1), run(4); sync != async {
		t.Fatalf("async moved %d bytes vs sync %d", async, sync)
	}
}

func TestAsyncNaiveModeAlsoWorks(t *testing.T) {
	skipAsyncUnderRace(t)
	full, confs := buildProblem(t, 80, 50, 3000, []float64{0.5, 0.5}, 34)
	cfg := defaultConfig(80, 50)
	cfg.Strategy = comm.Strategy{Encoding: comm.FP32, Streams: 2} // P&Q + streams
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(20, nil); err != nil {
		t.Fatal(err)
	}
	if rmse := mf.RMSE(c.Global(), full.Entries); rmse > 0.6 {
		t.Fatalf("async naive-mode convergence poor: %v", rmse)
	}
}

func TestAsyncSingleWorkerManyStreams(t *testing.T) {
	skipAsyncUnderRace(t)
	full, confs := buildProblem(t, 90, 70, 3000, []float64{1}, 35)
	cfg := defaultConfig(90, 70)
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 8}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(25, nil); err != nil {
		t.Fatal(err)
	}
	if rmse := mf.RMSE(c.Snapshot(), full.Entries); rmse > 0.6 {
		t.Fatalf("8-stream single worker RMSE %v", rmse)
	}
}
