package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/trace"
)

// simGoldenHash is the FNV-64a hash TestSimulatorGolden computes over the
// simulated phase spans and their per-worker sums. Every timing figure
// and table is derived from these numbers, so any change to the event
// engine, the cost rates or the span bookkeeping moves it.
const simGoldenHash = 0x733b7a463e3d1800

// TestSimulatorGolden pins the simulator's numbers bit for bit on two
// plans: netflix with the planner's own (synchronous) choice, and R2 with
// half-Q/async forced, so overlapping async streams are covered too. The
// hash reads every span, ordered by (worker, start), then every
// trace.Rows row.
func TestSimulatorGolden(t *testing.T) {
	async := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 4}
	h := fnv.New64a()
	put := func(s string, xs ...float64) {
		h.Write([]byte(s))
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	for _, c := range []struct {
		spec dataset.Spec
		opts core.PlanOptions
	}{
		{dataset.Netflix, core.PlanOptions{K: K}},
		{dataset.YahooR2, core.PlanOptions{K: K, ForceStrategy: &async}},
	} {
		r, err := hccRun(core.PaperPlatformHetero(), c.spec, c.opts, Epochs)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range trace.ByTrack(r.Sim.Events) {
			put(ev.Track+"/"+ev.Name, ev.Start, ev.End)
		}
		for _, row := range trace.Rows(r.Sim.Events) {
			put(row.Worker, row.Pull, row.Compute, row.Push, row.Sync)
		}
	}
	if got := h.Sum64(); got != simGoldenHash {
		t.Fatalf("simulator hash %#x, want %#x", got, uint64(simGoldenHash))
	}
}
