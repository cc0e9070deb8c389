package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hccmf/internal/dataset"
	"hccmf/internal/obs"
)

// TestObservedRunEndToEnd drives an instrumented real-training run and
// checks that every layer reported: ps update counts and phase histograms,
// comm transfer counters, sim gauges, and both exporters produce valid
// documents containing real and simulated events.
func TestObservedRunEndToEnd(t *testing.T) {
	o := obs.NewObserver(1<<12, nil)
	var progressed int
	res, err := Run(RunConfig{
		Spec:             dataset.Netflix,
		Platform:         PaperPlatformOverall(),
		Epochs:           5,
		MaterializeScale: 0.002,
		RealK:            8,
		Seed:             3,
		Obs:              o,
		OnEpoch: func(epoch, total int, rmse, simSeconds float64) {
			if epoch != progressed || total != 5 || rmse <= 0 || simSeconds <= 0 {
				t.Errorf("OnEpoch(%d, %d, %v, %v) out of order or empty", epoch, total, rmse, simSeconds)
			}
			progressed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if progressed != 5 {
		t.Fatalf("OnEpoch fired %d times, want 5", progressed)
	}

	workers := len(res.Plan.Partition)
	if got := o.Run.Phase[obs.Compute].Count(); got != int64(5*workers) {
		t.Fatalf("compute phases = %d, want %d (5 epochs × %d workers)", got, 5*workers, workers)
	}
	if got, want := o.Run.Updates.Value(), int64(5*res.TrainedData.Train.NNZ()); got != want {
		t.Fatalf("updates = %d, want %d (5 epochs × train nnz)", got, want)
	}
	if got := o.Run.BusBytes.Value(); got != res.CommStats.BusBytes {
		t.Fatalf("observed bus bytes %d != CommStats %d", got, res.CommStats.BusBytes)
	}
	if o.Run.Transfers.Value() == 0 || o.Run.TransferErrors.Value() != 0 {
		t.Fatalf("transfers = %d, errors = %d", o.Run.Transfers.Value(), o.Run.TransferErrors.Value())
	}
	if got := o.Run.EpochSeconds.Count(); got != 5 {
		t.Fatalf("cluster epochs observed = %d, want 5", got)
	}
	if got := o.Run.EvalSeconds.Count(); got != 6 { // initial + per-epoch
		t.Fatalf("evals observed = %d, want 6", got)
	}
	for p, h := range o.Run.Phase {
		if h.Count() == 0 {
			t.Fatalf("phase %d histogram empty", p)
		}
	}

	// Sim gauges attached.
	snap := o.Registry.Snapshot()
	names := map[string]bool{}
	for _, m := range snap {
		names[m.Name] = true
	}
	for _, want := range []string{
		"sim/total_seconds", "sim/power_updates_per_sec", "sim/utilization",
	} {
		if !names[want] {
			t.Fatalf("missing gauge %q in snapshot", want)
		}
	}
	var busyBands, phaseTotals int
	for name := range names {
		if strings.HasSuffix(name, "/busy_fraction") {
			busyBands++
		}
		if strings.HasSuffix(name, "/compute_seconds") {
			phaseTotals++
		}
	}
	if busyBands == 0 || phaseTotals == 0 {
		t.Fatalf("per-worker sim gauges missing (bands=%d, phase totals=%d)", busyBands, phaseTotals)
	}

	// Both exporters must emit valid documents with both time domains.
	var metricsBuf bytes.Buffer
	if err := o.WriteJSON(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	var doc obs.Document
	if err := json.Unmarshal(metricsBuf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics export invalid: %v", err)
	}
	if doc.Schema != obs.Schema || len(doc.Metrics) == 0 {
		t.Fatalf("metrics document = %+v", doc)
	}
	events := o.Tracer.Events()
	tracks := obs.Tracks(events)
	var haveReal, haveSim bool
	for _, tr := range tracks {
		if strings.HasPrefix(tr, obs.ProcReal+"/") {
			haveReal = true
		}
		if strings.HasPrefix(tr, obs.ProcSim+"/") {
			haveSim = true
		}
	}
	if !haveReal || !haveSim {
		t.Fatalf("trace missing a time domain: tracks = %v", tracks)
	}
	var traceBuf bytes.Buffer
	if err := obs.WriteChromeTrace(&traceBuf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(traceBuf.Bytes()) {
		t.Fatal("chrome trace export is not valid JSON")
	}
}

// TestUnobservedRunUnchanged pins the nil-observer path: no Obs, no
// OnEpoch, same results as before the instrumentation existed.
func TestUnobservedRunUnchanged(t *testing.T) {
	run := func(o *obs.Observer) *Result {
		res, err := Run(RunConfig{
			Spec:             dataset.Netflix,
			Platform:         PaperPlatformOverall(),
			Epochs:           5,
			MaterializeScale: 0.002,
			RealK:            8,
			Seed:             3,
			Obs:              o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(obs.NewObserver(256, nil))
	if plain.FinalRMSE != observed.FinalRMSE {
		t.Fatalf("observation changed the result: %v vs %v", plain.FinalRMSE, observed.FinalRMSE)
	}
	if plain.CommStats != observed.CommStats {
		t.Fatalf("observation changed comm accounting: %+v vs %+v", plain.CommStats, observed.CommStats)
	}
}
