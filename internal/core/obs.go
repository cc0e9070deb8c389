package core

import (
	"hccmf/internal/obs"
	"hccmf/internal/trace"
)

// attachSimObs lands the simulated-platform results on the observer: the
// headline gauges (total time, computing power, utilization — the Table 4
// quantities), per-worker phase totals and busy/idle utilization bands
// derived from the phase spans, and the spans themselves, ordered by
// (worker, start), so a Chrome trace export shows the simulated schedule
// next to real execution.
func attachSimObs(o *obs.Observer, res *Result) {
	if o == nil || res.Sim == nil {
		return
	}
	reg := o.Registry
	reg.Gauge("sim/total_seconds", "simulated wall clock of the whole run").Set(res.Sim.TotalTime)
	reg.Gauge("sim/power_updates_per_sec", "achieved computing power (Eq. 8)").Set(res.Power)
	reg.Gauge("sim/ideal_power_updates_per_sec", "sum of standalone device rates").Set(res.IdealPower)
	reg.Gauge("sim/utilization", "achieved/ideal power ratio (Table 4)").Set(res.Utilization)
	for _, row := range trace.Rows(res.Sim.Events) {
		prefix := "sim/worker/" + row.Worker + "/"
		reg.Gauge(prefix+"pull_seconds", "cumulative simulated pull time").Set(row.Pull)
		reg.Gauge(prefix+"compute_seconds", "cumulative simulated compute time").Set(row.Compute)
		reg.Gauge(prefix+"push_seconds", "cumulative simulated push time").Set(row.Push)
		reg.Gauge(prefix+"sync_seconds", "cumulative simulated sync time").Set(row.Sync)
	}
	for _, band := range obs.TimelineBands(res.Sim.Events, res.Sim.TotalTime) {
		reg.Gauge("sim/worker/"+band.Worker+"/busy_fraction",
			"fraction of the simulated run the worker was busy").Set(band.Utilization)
	}
	for _, ev := range trace.ByTrack(res.Sim.Events) {
		o.Tracer.Emit(ev)
	}
}
