package experiments

import (
	"fmt"
	"strings"

	"hccmf/internal/comm"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/partition"
	"hccmf/internal/trace"
)

// Fig5Diagram is one timing-sequence panel: a configuration label, its
// steady-state epoch time, and the ASCII Gantt of its second epoch.
type Fig5Diagram struct {
	Label     string
	EpochTime float64
	Gantt     string
}

// Figure5Result reproduces Figure 5's three timing sequences on the
// sync-heavy R1* shape: the original unoptimised run, the optimised run
// ignoring synchronisation (DP1), and the optimised run considering it
// (DP2).
type Figure5Result struct {
	Diagrams []Fig5Diagram
}

// Figure5 renders the three timing sequences.
func Figure5() (*Figure5Result, error) {
	plat := core.PaperPlatformHetero()
	spec := dataset.YahooR1Star

	naive := comm.Strategy{Encoding: comm.FP32, Streams: 1}
	tuned := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}
	dp0 := partition.DP0Strategy
	dp1 := partition.DP1Strategy

	configs := []struct {
		label string
		opts  core.PlanOptions
	}{
		{"original (no optimisation)",
			core.PlanOptions{K: K, ForceStrategy: &naive, ForcePartition: &dp0}},
		{"optimised, sync ignored (DP1)",
			core.PlanOptions{K: K, ForceStrategy: &tuned, ForcePartition: &dp1}},
		{"optimised, sync considered (DP2)",
			core.PlanOptions{K: K, ForceStrategy: &tuned}},
	}
	res := &Figure5Result{}
	for _, c := range configs {
		plan, err := core.PlanRun(plat, spec, c.opts)
		if err != nil {
			return nil, fmt.Errorf("figure5 %s: %v", c.label, err)
		}
		sim, err := core.SimulateRun(plat, spec, plan, 3)
		if err != nil {
			return nil, fmt.Errorf("figure5 %s: %v", c.label, err)
		}
		// Render the second epoch (steady state, past the first pull).
		from := sim.EpochTimes[0]
		to := from + sim.EpochTimes[1]
		res.Diagrams = append(res.Diagrams, Fig5Diagram{
			Label:     c.label,
			EpochTime: sim.EpochTimes[1],
			Gantt:     trace.Gantt(sim.Events, from, to, 96),
		})
	}
	return res, nil
}

// Format renders all three panels.
func (r *Figure5Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 5: timing sequences of one training epoch (R1* shape)\n")
	for _, d := range r.Diagrams {
		fmt.Fprintf(&b, "\n-- %s — epoch %.4fs\n%s", d.Label, d.EpochTime, d.Gantt)
	}
	return b.String()
}
