package core

import (
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/dataset"
	"hccmf/internal/obs"
	"hccmf/internal/trace"
)

// The simulated execution must reproduce the structure of the paper's
// Figure 5 timing sequences.

func TestTimelineSyncsAreSerialised(t *testing.T) {
	// The server has one sync thread: no two sync spans may overlap.
	sync := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	sim, _ := simulate(t, PaperPlatformHetero(), dataset.YahooR1Star,
		PlanOptions{ForceStrategy: &sync}, 5)
	var syncs []obs.Event
	for _, s := range sim.Events {
		if s.Name == obs.Sync.String() {
			syncs = append(syncs, s)
		}
	}
	if len(syncs) < 10 {
		t.Fatalf("only %d sync spans", len(syncs))
	}
	for i := range syncs {
		for j := i + 1; j < len(syncs); j++ {
			a, b := syncs[i], syncs[j]
			if a.Start < b.End && b.Start < a.End {
				t.Fatalf("sync spans overlap: %+v and %+v", a, b)
			}
		}
	}
}

func TestTimelineDP2HidesSyncUnderCompute(t *testing.T) {
	// Figure 5's right diagram: under DP2, earlier workers' syncs run
	// while the last worker still computes.
	syncStrat := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	sim, plan := simulate(t, PaperPlatformHetero(), dataset.YahooR1Star,
		PlanOptions{ForceStrategy: &syncStrat}, 3)
	if plan.PartitionStrategy.String() != "DP2" {
		t.Fatalf("expected DP2 plan, got %v", plan.PartitionStrategy)
	}
	hidden := 0
	for _, s := range sim.Events {
		if s.Name != obs.Sync.String() {
			continue
		}
		for _, c := range sim.Events {
			if c.Name == obs.Compute.String() && c.Track != s.Track &&
				c.Start < s.End && s.Start < c.End {
				hidden++
				break
			}
		}
	}
	if hidden == 0 {
		t.Fatal("no sync span overlapped another worker's compute — DP2 hides nothing")
	}
}

func TestTimelinePhasesOrderedWithinWorker(t *testing.T) {
	// Within a worker and epoch the sequence is pull → compute → push →
	// sync; spans of one worker never overlap each other (synchronous
	// mode).
	sim, plan := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 4)
	if plan.Strategy.Streams != 1 {
		t.Fatal("expected synchronous plan for netflix")
	}
	byWorker := map[string][]obs.Event{}
	for _, s := range trace.ByTrack(sim.Events) {
		if s.Proc != obs.ProcSim || s.Cat != "simengine" {
			t.Fatalf("span %+v is not a simengine span", s)
		}
		byWorker[s.Track] = append(byWorker[s.Track], s)
	}
	wantCycle := []obs.Phase{obs.Pull, obs.Compute, obs.Push, obs.Sync}
	for w, spans := range byWorker {
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				t.Fatalf("worker %s spans overlap: %+v then %+v", w, spans[i-1], spans[i])
			}
		}
		for i, s := range spans {
			if s.Name != wantCycle[i%4].String() {
				t.Fatalf("worker %s span %d is %v, want %v", w, i, s.Name, wantCycle[i%4])
			}
		}
		if len(spans) != 4*4 {
			t.Fatalf("worker %s has %d spans, want 16", w, len(spans))
		}
	}
}

func TestTimelineEndMatchesTotal(t *testing.T) {
	sim, _ := simulate(t, PaperPlatformHetero(), dataset.Netflix, PlanOptions{}, 3)
	var end float64
	for _, s := range sim.Events {
		if s.End > end {
			end = s.End
		}
	}
	if end > sim.TotalTime+1e-9 || end < sim.TotalTime*0.95 {
		t.Fatalf("timeline end %v vs total %v", end, sim.TotalTime)
	}
}
