package experiments

import (
	"fmt"
	"strings"

	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/related"
	"hccmf/internal/sparse"
)

// RelatedWorkResult quantifies the paper's Section 5 comparisons against
// DSGD and NOMAD on the heterogeneous platform.
type RelatedWorkResult struct {
	// DSGDEpoch and HCCEpoch are one-epoch times on the Netflix shape
	// with the paper platform's rates; HeterogeneityPenalty is their ratio
	// (DSGD's equal split vs HCC's balanced partition).
	DSGDEpoch, HCCEpoch  float64
	HeterogeneityPenalty float64

	// NOMADMessages / HCCMessages per Netflix epoch at the platform's
	// worker count, and the byte totals; granularity is the message-count
	// ratio.
	NOMADMessages, HCCMessages int64
	NOMADBytes, HCCBytes       int64
	Granularity                float64

	// Real-training parity on a small instance: all three systems' final
	// RMSE (convergence equivalence).
	HCCRMSE, DSGDRMSE, NOMADRMSE float64
}

// RelatedWork runs the comparison study.
func RelatedWork() (*RelatedWorkResult, error) {
	res := &RelatedWorkResult{}
	spec := dataset.Netflix
	plat := core.PaperPlatformHetero()
	rates := plat.Rates(spec.Name)
	p := len(rates)

	// 1) Makespan: DSGD's equal split vs the balanced reference.
	var err error
	res.DSGDEpoch, err = related.EpochMakespan(spec.NNZ, rates)
	if err != nil {
		return nil, err
	}
	res.HCCEpoch, err = related.BalancedMakespan(spec.NNZ, rates)
	if err != nil {
		return nil, err
	}
	res.HeterogeneityPenalty = res.DSGDEpoch / res.HCCEpoch

	// 2) Communication granularity per epoch (analytic, k = the timing
	// studies' 128): NOMAD circulates every column through every worker;
	// HCC-MF pulls and pushes Q once per worker.
	res.NOMADMessages = int64(spec.N) * int64(p)
	res.NOMADBytes = res.NOMADMessages * int64(K) * 4
	res.HCCMessages = int64(2 * p)
	res.HCCBytes = int64(2*p) * int64(spec.N) * int64(K) * 2 // half-Q
	res.Granularity = float64(res.NOMADMessages) / float64(res.HCCMessages)

	// 3) Convergence parity, really trained on a scaled instance.
	small, err := spec.Scaled(0.002)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(small, 21)
	if err != nil {
		return nil, err
	}
	const epochs, k = 15, 8
	h := mf.HyperParams{Gamma: small.Params.Gamma,
		Lambda1: small.Params.Lambda1, Lambda2: small.Params.Lambda2}

	hccRes, err := core.Run(core.RunConfig{
		Spec: spec, Platform: plat, Epochs: epochs,
		MaterializeScale: 0.002, RealK: k, Seed: 21,
	})
	if err != nil {
		return nil, err
	}
	res.HCCRMSE = hccRes.FinalRMSE

	fd := mf.NewFactorsInit(ds.Train.Rows, ds.Train.Cols, k, ds.Train.MeanRating(), sparse.NewRand(22))
	// DSGD lays its training set out in block order in place; a clone
	// keeps NOMAD's input in the dataset's order.
	dsgd, dsgdTrain := &related.DSGD{Workers: 4}, ds.Train.Clone()
	for e := 0; e < epochs; e++ {
		dsgd.Epoch(fd, dsgdTrain, h)
	}
	res.DSGDRMSE = mf.RMSE(fd, ds.Test.Entries)

	fn := mf.NewFactorsInit(ds.Train.Rows, ds.Train.Cols, k, ds.Train.MeanRating(), sparse.NewRand(22))
	if _, err := (&related.NOMAD{Workers: 4}).Run(fn, ds.Train, h, epochs); err != nil {
		return nil, err
	}
	res.NOMADRMSE = mf.RMSE(fn, ds.Test.Entries)
	return res, nil
}

// Format renders the comparison.
func (r *RelatedWorkResult) Format() string {
	var b strings.Builder
	b.WriteString("Related work (paper Section 5), quantified on the Netflix shape\n")
	fmt.Fprintf(&b, "  DSGD equal-split epoch   : %.4fs (balanced: %.4fs) → %.2fx buckets-effect penalty\n",
		r.DSGDEpoch, r.HCCEpoch, r.HeterogeneityPenalty)
	fmt.Fprintf(&b, "  NOMAD per-epoch comm     : %d messages / %.1f MiB\n",
		r.NOMADMessages, float64(r.NOMADBytes)/(1<<20))
	fmt.Fprintf(&b, "  HCC-MF per-epoch comm    : %d transfers / %.1f MiB (half-Q)\n",
		r.HCCMessages, float64(r.HCCBytes)/(1<<20))
	fmt.Fprintf(&b, "  message granularity gap  : %.0fx\n", r.Granularity)
	fmt.Fprintf(&b, "  convergence parity (RMSE): HCC %.4f, DSGD %.4f, NOMAD %.4f\n",
		r.HCCRMSE, r.DSGDRMSE, r.NOMADRMSE)
	return b.String()
}
