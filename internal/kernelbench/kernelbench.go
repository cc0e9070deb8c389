// Package kernelbench defines the hot-path kernel micro-benchmarks shared
// by the `go test -bench` wrappers (bench_test.go at the repo root) and
// `hccmf-bench -json`, which runs them through testing.Benchmark to fill
// the report's kernel section. Keeping a single definition of each workload
// makes the numbers recorded in BENCH_*.json directly comparable with local
// `go test -bench` runs: same matrix shape, same seeds, same engines.
//
// Workloads are deliberately laptop-sized (2000×1000, 200k ratings, k=32)
// so the whole suite runs in seconds; the quantities of interest —
// ns/update, updates/s, allocs/op — are per-update and transfer to the
// full-size problems.
package kernelbench

import (
	"testing"

	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/raceflag"
	"hccmf/internal/sparse"
)

// Benchmark workload shape. One epoch touches NNZ ratings; every epoch-level
// benchmark below therefore performs exactly NNZ updates per op.
const (
	Rows = 2000
	Cols = 1000
	NNZ  = 200_000
	K    = 32
)

// Hyper is the fixed hyper-parameter set every kernel benchmark trains with.
var Hyper = mf.HyperParams{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01}

// Matrix builds the deterministic benchmark rating matrix (uniform random
// coordinates, ratings in [1,5), fixed seed).
func Matrix() *sparse.COO {
	rng := sparse.NewRand(1)
	m := sparse.NewCOO(Rows, Cols, NNZ)
	for i := 0; i < NNZ; i++ {
		m.Add(int32(rng.Intn(Rows)), int32(rng.Intn(Cols)), 1+4*rng.Float32())
	}
	return m
}

// Factors builds the benchmark factor matrices matching Matrix.
func Factors(m *sparse.COO) *mf.Factors {
	return mf.NewFactorsInit(m.Rows, m.Cols, K, m.MeanRating(), sparse.NewRand(2))
}

// ReportUpdates attaches the throughput metrics shared by every kernel
// benchmark: updates/s and ns/update, derived from updates-per-op.
func ReportUpdates(b *testing.B, perOp int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	total := float64(perOp) * float64(b.N)
	b.ReportMetric(total/sec, "updates/s")
	b.ReportMetric(sec*1e9/total, "ns/update")
}

// UpdateOne benchmarks the single-rating SGD kernel at k=K.
func UpdateOne(b *testing.B) {
	p := make([]float32, K)
	q := make([]float32, K)
	for i := range p {
		p[i], q[i] = 0.3, 0.4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mf.UpdateOne(p, q, 3.5, Hyper)
	}
	ReportUpdates(b, 1)
}

func epochBench(b *testing.B, e mf.Engine) {
	m := Matrix()
	f := Factors(m)
	b.SetBytes(int64(m.NNZ()) * int64(mf.UpdateBytes(K)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Epoch(f, m, Hyper)
	}
	ReportUpdates(b, m.NNZ())
}

// FPSGDEpoch benchmarks one block-walk epoch (4 threads).
func FPSGDEpoch(b *testing.B) {
	epochBench(b, &mf.FPSGD{Threads: 4})
}

// BatchedEpoch benchmarks one cuMF_SGD-style batched epoch (8 groups on
// the same block walk).
func BatchedEpoch(b *testing.B) {
	epochBench(b, &mf.Batched{Groups: 8})
}

// HogwildEpoch benchmarks one lock-free Hogwild epoch (4 threads).
func HogwildEpoch(b *testing.B) {
	if raceflag.Enabled {
		b.Skip("hogwild kernel is intentionally lock-free; skipped under -race")
	}
	epochBench(b, &mf.Hogwild{Threads: 4})
}

// RMSEParallel benchmarks the chunked parallel evaluator (4 workers).
func RMSEParallel(b *testing.B) {
	m := Matrix()
	f := Factors(m)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mf.RMSEParallel(f, m.Entries, 4)
	}
	_ = sink
	ReportUpdates(b, m.NNZ())
}

// BuildWorkerConfs benchmarks the planner→worker sharding step: CSR
// indexing, row-grid cutting and per-worker shard construction for the
// paper's 4-worker platform.
func BuildWorkerConfs(b *testing.B) {
	m := Matrix()
	plat := core.PaperPlatformOverall()
	spec := dataset.Spec{
		Name: "kernelbench", M: Rows, N: Cols, NNZ: NNZ, Rank: K,
		Params: dataset.Params{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01},
	}
	plan, err := core.PlanRun(plat, spec, core.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildWorkerConfs(plan.Platform, plan, m, core.Tuning{HostCap: 4}); err != nil {
			b.Fatal(err)
		}
	}
	ReportUpdates(b, m.NNZ())
}
