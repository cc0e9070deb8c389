package core

import (
	"math"
	"runtime"
	"testing"

	"hccmf/internal/bus"
	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/ps"
	"hccmf/internal/sparse"
)

// skewedRows builds a rows×cols matrix whose row lengths vary from 1 to
// maxRow, so a contiguous row cut can only approximate a share.
func skewedRows(rows, cols, maxRow int) *sparse.COO {
	rng := sparse.NewRand(5)
	m := sparse.NewCOO(rows, cols, rows*maxRow/2)
	for u := 0; u < rows; u++ {
		for n := 1 + rng.Intn(maxRow); n > 0; n-- {
			m.Add(int32(u), int32(rng.Intn(cols)), 1+4*rng.Float32())
		}
	}
	m.Shuffle(rng)
	return m
}

// confsFor plans plat on the Netflix shape and cuts train for it.
func confsFor(t *testing.T, plat Platform, opts PlanOptions, train *sparse.COO, tuning Tuning) (Plan, []ps.WorkerConf) {
	t.Helper()
	opts.K = 8
	plan, err := PlanRun(plat, dataset.Netflix, opts)
	if err != nil {
		t.Fatal(err)
	}
	confs, err := BuildWorkerConfs(plan.Platform, plan, train, tuning)
	if err != nil {
		t.Fatal(err)
	}
	return plan, confs
}

// assertRatingsShares checks each worker's ratings share against want,
// allowing one row's count of slack (a contiguous cut cannot split a row),
// and that Weight carries the share the cut aimed for.
func assertRatingsShares(t *testing.T, confs []ps.WorkerConf, train *sparse.COO, maxRow int, want []float64) {
	t.Helper()
	if len(confs) != len(want) {
		t.Fatalf("%d workers, want %d", len(confs), len(want))
	}
	total := float64(len(train.Entries))
	for i, c := range confs {
		got := float64(len(c.Shard.Entries))
		if math.Abs(got-want[i]*total) > float64(maxRow) {
			t.Errorf("worker %s: %v of %v ratings, want %.3f ± one row (%d)",
				c.Name, got, total, want[i], maxRow)
		}
		if math.Abs(c.Weight-want[i]) > 1e-12 {
			t.Errorf("worker %s: Weight %v, want %v", c.Name, c.Weight, want[i])
		}
	}
}

// Two one-thread workers run the same kernel at the same rate on this
// host, however far apart their simulated devices are: the real cut is
// 50/50 while the simulated partition stays skewed toward the 2080S.
func TestRealSharesIgnoreSimulatedRates(t *testing.T) {
	const maxRow = 20
	train := skewedRows(1000, 200, maxRow)
	plat := PaperPlatformOverall().FirstWorkers(2) // 2080S, 6242-24T
	plan, confs := confsFor(t, plat, PlanOptions{}, train, Tuning{HostCap: 1})
	if plan.Partition[0] < 0.6 {
		t.Fatalf("simulated partition %v no longer favours the 2080S", plan.Partition)
	}
	assertRatingsShares(t, confs, train, maxRow, []float64{0.5, 0.5})

	// Swapping the devices swaps nothing in the cut.
	swapped := Platform{Server: plat.Server, Workers: []WorkerSpec{plat.Workers[1], plat.Workers[0]}}
	_, back := confsFor(t, swapped, PlanOptions{}, train, Tuning{HostCap: 1})
	for i := range confs {
		if back[i].RowLo != confs[i].RowLo || back[i].RowHi != confs[i].RowHi {
			t.Fatalf("worker %d: swapped devices cut rows [%d,%d), original [%d,%d)",
				i, back[i].RowLo, back[i].RowHi, confs[i].RowLo, confs[i].RowHi)
		}
	}
}

// Unequal core budgets split the ratings in the ratio of their threads.
func TestRealSharesFollowThreadBudgets(t *testing.T) {
	const maxRow = 20
	train := skewedRows(1000, 200, maxRow)
	plat := Platform{Server: device.Xeon6242(16), Workers: []WorkerSpec{
		{Device: device.Xeon6242(2), Bus: bus.UPI},
		{Device: device.Xeon6242(6), Bus: bus.UPI},
	}}
	_, confs := confsFor(t, plat, PlanOptions{}, train, Tuning{HostCap: 8})
	assertRatingsShares(t, confs, train, maxRow, []float64{0.25, 0.75})
	if got := []int{engineThreads(confs[0].Engine), engineThreads(confs[1].Engine)}; got[0] != 2 || got[1] != 6 {
		t.Fatalf("engine threads %v, want [2 6]", got)
	}
}

// A plan built with forced shares trains them: the Figure 3 "unbalanced
// data" misconfiguration reaches the real shards, not only the simulator.
func TestForcedSharesReachRealShards(t *testing.T) {
	const maxRow = 20
	train := skewedRows(1000, 200, maxRow)
	plat := PaperPlatformOverall().FirstWorkers(2)
	plan, confs := confsFor(t, plat, PlanOptions{ForceShares: []float64{0.3, 0.7}}, train, Tuning{HostCap: 1})
	if !plan.SharesForced {
		t.Fatal("plan does not record its forced shares")
	}
	assertRatingsShares(t, confs, train, maxRow, []float64{0.3, 0.7})
}

// Under the default Tuning the workers' engine threads never sum past
// GOMAXPROCS, except that every worker gets at least one thread.
func TestDefaultBudgetsFitGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := skewedRows(400, 100, 10)
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, plat := range []Platform{PaperPlatformOverall(), PaperPlatformOverall().FirstWorkers(2)} {
			plan, confs := confsFor(t, plat, PlanOptions{}, train, Tuning{})
			sum := 0
			for _, c := range confs {
				sum += engineThreads(c.Engine)
			}
			if limit := max(procs, len(plan.Platform.Workers)); sum > limit {
				t.Fatalf("GOMAXPROCS=%d, %d workers: engine threads sum to %d", procs, len(confs), sum)
			}
		}
	}
}
