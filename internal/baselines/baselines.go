// Package baselines provides the single-processor comparators the paper
// evaluates HCC-MF against: FPSGD (Chin et al., the multicore CPU
// state of the art) and cuMF_SGD (Xie et al., the GPU state of the art) —
// specifically the paper's *modified* versions (AVX/AVX512 kernels, block
// sorting), whose measured throughputs are what the device calibration
// tables carry. A baseline couples a device profile (for simulated time)
// with a real execution engine (for convergence curves).
package baselines

import (
	"fmt"

	"hccmf/internal/dataset"
	"hccmf/internal/device"
	"hccmf/internal/metrics"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// Standalone is one single-processor baseline.
type Standalone struct {
	// Name labels result rows ("FPSGD", "CuMF_SGD").
	Name string
	// Device supplies the calibrated throughput for simulated timing.
	Device *device.Device
	// Engine executes real epochs for convergence studies.
	Engine mf.Engine
}

// FPSGD is the paper's modified FPSGD baseline on a Xeon 6242 with the
// given thread count.
func FPSGD(threads int) Standalone {
	hostThreads := threads
	if hostThreads > 4 {
		hostThreads = 4 // cap real execution to the test host
	}
	return Standalone{
		Name:   "FPSGD",
		Device: device.Xeon6242(threads),
		Engine: &mf.FPSGD{Threads: hostThreads},
	}
}

// CuMFSGD is the paper's modified cuMF_SGD baseline on the given GPU
// (panics when handed a CPU profile).
func CuMFSGD(d *device.Device) Standalone {
	if d.Kind != device.GPU {
		// lint:invariant baseline wiring is experiment code, not user config; handing a CPU profile to cuMF_SGD is a broken experiment definition.
		panic(fmt.Sprintf("baselines: cuMF_SGD needs a GPU, got %v", d))
	}
	return Standalone{
		Name:   "CuMF_SGD",
		Device: d,
		Engine: &mf.Batched{Groups: 4},
	}
}

// SimTime reports the simulated wall clock for the baseline to train the
// full-size dataset for the given epochs: pure compute at the calibrated
// standalone rate (the single-processor systems keep data resident, so no
// per-epoch transfer cost applies).
func (s Standalone) SimTime(spec dataset.Spec, epochs int) float64 {
	if epochs <= 0 {
		// lint:invariant epoch counts reaching SimTime are experiment-table constants; TrainCurve, the user-facing path, returns an error instead.
		panic(fmt.Sprintf("baselines: epochs = %d", epochs))
	}
	return float64(spec.NNZ) * float64(epochs) / s.Device.UpdateRate(spec.Name)
}

// TrainCurve really trains a scaled instance of the dataset and returns
// the convergence curve with the *simulated* full-size clock as its time
// axis — the construction behind Figure 7(d–f).
func (s Standalone) TrainCurve(spec dataset.Spec, scale float64, epochs, k int, seed uint64) (*metrics.Curve, error) {
	if epochs <= 0 || k <= 0 {
		return nil, fmt.Errorf("baselines: epochs=%d k=%d", epochs, k)
	}
	runSpec := spec
	if scale > 0 && scale < 1 {
		var err error
		runSpec, err = spec.Scaled(scale)
		if err != nil {
			return nil, err
		}
	}
	ds, err := dataset.Generate(runSpec, seed)
	if err != nil {
		return nil, err
	}
	rng := sparse.NewRand(seed + 1)
	f := mf.NewFactorsInit(ds.Train.Rows, ds.Train.Cols, k, ds.Train.MeanRating(), rng)
	h := mf.HyperParams{
		Gamma:   runSpec.Params.Gamma,
		Lambda1: runSpec.Params.Lambda1,
		Lambda2: runSpec.Params.Lambda2,
	}
	epochTime := s.SimTime(spec, 1)
	curve := &metrics.Curve{Label: s.Name + "/" + spec.Name}
	// Epoch 0: the untrained model, so descent is measured from a
	// deterministic anchor (parallel engines make epoch-level RMSE mildly
	// schedule-dependent).
	curve.Append(0, 0, mf.RMSEParallel(f, ds.Test.Entries, 4))
	for e := 1; e <= epochs; e++ {
		s.Engine.Epoch(f, ds.Train, h)
		curve.Append(e, float64(e)*epochTime, mf.RMSEParallel(f, ds.Test.Entries, 4))
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: %s diverged: %v", s.Name, err)
	}
	return curve, nil
}
