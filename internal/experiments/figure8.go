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

// Fig8Bar is one horizontal bar of Figure 8: the cumulative 20-epoch phase
// times (taken from the slowest worker per phase) plus the total cost for
// one partition strategy.
type Fig8Bar struct {
	Strategy partition.Strategy
	Pull     float64
	Compute  float64
	Push     float64 // includes server sync, as the paper's "push" bars do
	Total    float64
	// PerWorker carries the full trace rows for detailed inspection.
	PerWorker []trace.Row
}

// Fig8Panel is one subfigure: a dataset × worker-count pair comparing two
// strategies.
type Fig8Panel struct {
	Dataset string
	Workers int
	Bars    []Fig8Bar
}

// Figure8Result reproduces Figure 8's six panels.
type Figure8Result struct {
	Panels []Fig8Panel
}

// Figure8 runs the data-partition-strategy study: DP0 vs DP1 on Netflix
// and R2 (synchronisation negligible), DP1 vs DP2 on R1* (synchronisation
// material; transfers forced synchronous because DP2 is the synchronous-
// mode remedy).
func Figure8() (*Figure8Result, error) {
	res := &Figure8Result{}
	plat := core.PaperPlatformHetero()
	syncOnly := comm.Strategy{QOnly: true, Encoding: comm.FP16, Streams: 1}

	type study struct {
		spec       dataset.Spec
		strategies []partition.Strategy
		force      *comm.Strategy
	}
	studies := []study{
		{dataset.Netflix, []partition.Strategy{partition.DP0Strategy, partition.DP1Strategy}, nil},
		{dataset.YahooR2, []partition.Strategy{partition.DP0Strategy, partition.DP1Strategy}, nil},
		{dataset.YahooR1Star, []partition.Strategy{partition.DP1Strategy, partition.DP2Strategy}, &syncOnly},
	}
	for _, st := range studies {
		for _, workers := range []int{3, 4} {
			panel := Fig8Panel{Dataset: st.spec.Name, Workers: workers}
			for _, ps := range st.strategies {
				ps := ps
				opts := core.PlanOptions{K: K, ForcePartition: &ps, ForceStrategy: st.force}
				r, err := hccRun(plat.FirstWorkers(workers), st.spec, opts, Epochs)
				if err != nil {
					return nil, fmt.Errorf("figure8 %s/%dw/%v: %v", st.spec.Name, workers, ps, err)
				}
				bar := Fig8Bar{Strategy: ps, Total: r.Sim.TotalTime, PerWorker: trace.Rows(r.Sim.Events)}
				for _, row := range bar.PerWorker {
					if row.Pull > bar.Pull {
						bar.Pull = row.Pull
					}
					if row.Compute > bar.Compute {
						bar.Compute = row.Compute
					}
					if v := row.Push + row.Sync; v > bar.Push {
						bar.Push = v
					}
				}
				panel.Bars = append(panel.Bars, bar)
			}
			res.Panels = append(res.Panels, panel)
		}
	}
	return res, nil
}

// Panel returns the panel for a dataset and worker count (nil if absent).
func (r *Figure8Result) Panel(ds string, workers int) *Fig8Panel {
	for i := range r.Panels {
		if r.Panels[i].Dataset == ds && r.Panels[i].Workers == workers {
			return &r.Panels[i]
		}
	}
	return nil
}

// Bar returns the bar for a strategy (nil if absent).
func (p *Fig8Panel) Bar(s partition.Strategy) *Fig8Bar {
	for i := range p.Bars {
		if p.Bars[i].Strategy == s {
			return &p.Bars[i]
		}
	}
	return nil
}

// Format renders all panels.
func (r *Figure8Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 8: 20-epoch time by data partition strategy\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "-- %s, %d workers\n", p.Dataset, p.Workers)
		fmt.Fprintf(&b, "   %-5s %10s %10s %10s %10s\n", "strat", "pull(s)", "comp(s)", "push(s)", "total(s)")
		for _, bar := range p.Bars {
			fmt.Fprintf(&b, "   %-5s %s %s %s %s\n", bar.Strategy,
				seconds(bar.Pull), seconds(bar.Compute), seconds(bar.Push), seconds(bar.Total))
		}
	}
	return b.String()
}
