package experiments

import (
	"fmt"
	"strings"

	"hccmf/internal/bus"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/trace"
)

// Table6Row is one configuration of the limitation study.
type Table6Row struct {
	System  string // "HCC" or "CuMF_SGD"
	Workers string
	Pull    float64
	Compute float64
	Push    float64
	Cost    float64
}

// Table6Result reproduces Table 6: on MovieLens-20m, whose communication
// cost rivals its computation cost, adding a second GPU barely helps.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 runs the ML-20m limitation study.
func Table6() (*Table6Result, error) {
	spec := dataset.MovieLens20M
	res := &Table6Result{}
	server := device.Xeon6242(16)

	configs := []struct {
		label   string
		workers []core.WorkerSpec
	}{
		{"2080S", []core.WorkerSpec{
			{Device: device.RTX2080Super(), Bus: bus.PCIe3x16},
		}},
		{"2080S-2080", []core.WorkerSpec{
			{Device: device.RTX2080Super(), Bus: bus.PCIe3x16},
			{Device: device.RTX2080(), Bus: bus.PCIe3x16},
		}},
	}
	for _, c := range configs {
		plat := core.Platform{Server: server, Workers: c.workers}
		r, err := hccRun(plat, spec, core.PlanOptions{K: K}, Epochs)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %v", c.label, err)
		}
		// Report the slowest worker's phase profile, as the paper's rows do.
		var pull, comp, push float64
		for _, row := range trace.Rows(r.Sim.Events) {
			if row.Pull > pull {
				pull = row.Pull
			}
			if row.Compute > comp {
				comp = row.Compute
			}
			if v := row.Push + row.Sync; v > push {
				push = v
			}
		}
		res.Rows = append(res.Rows, Table6Row{
			System: "HCC", Workers: c.label,
			Pull: pull, Compute: comp, Push: push,
			Cost: r.Sim.TotalTime,
		})
	}
	// Standalone cuMF_SGD on the 2080S.
	res.Rows = append(res.Rows, Table6Row{
		System: "CuMF_SGD", Workers: "2080S",
		Cost: core.SimulateStandalone(device.RTX2080Super(), spec, Epochs),
	})
	return res, nil
}

// Row returns the row for a system/workers pair (nil if absent).
func (r *Table6Result) Row(system, workers string) *Table6Row {
	for i := range r.Rows {
		if r.Rows[i].System == system && r.Rows[i].Workers == workers {
			return &r.Rows[i]
		}
	}
	return nil
}

// Format renders the table.
func (r *Table6Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 6: limitation shown with MovieLens-20m (20 epochs)\n")
	fmt.Fprintf(&b, "%-10s %-12s %10s %10s %10s %10s\n",
		"system", "worker", "pull(s)", "comp(s)", "push(s)", "cost(s)")
	for _, row := range r.Rows {
		pull, comp, push := "N/A", "N/A", "N/A"
		if row.System == "HCC" {
			pull = fmt.Sprintf("%10.4f", row.Pull)
			comp = fmt.Sprintf("%10.4f", row.Compute)
			push = fmt.Sprintf("%10.4f", row.Push)
		}
		fmt.Fprintf(&b, "%-10s %-12s %10s %10s %10s %10.4f\n",
			row.System, row.Workers, pull, comp, push, row.Cost)
	}
	return b.String()
}
