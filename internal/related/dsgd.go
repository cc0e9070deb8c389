// Package related implements the distributed SGD-MF systems the paper
// positions HCC-MF against (Section 5): DSGD's stratified rotation
// (Gemulla et al., reference [7]) and NOMAD's asynchronous column passing
// (Yun et al., reference [29]). Both really train, so the paper's
// critiques become measurable: DSGD's equal row split straggles on
// heterogeneous processors (the "buckets effect"), and NOMAD's per-column
// message passing moves far more feature data than HCC-MF's epoch-level
// pull/push.
package related

import (
	"fmt"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// DSGD is stratified SGD: the rating matrix is tiled into a p×p block
// grid; a sub-epoch trains the stratum of blocks (i, (i+s) mod p), whose p
// blocks share no rows or columns and need no locks; a barrier separates
// sub-epochs and an epoch is p sub-epochs (every block trained once). It
// is mf.BlockWalk at side p on p threads.
//
// Faithful to the original — and to the paper's critique — the row grid
// is an *equal* split: DSGD has no notion of heterogeneous worker speed,
// so the slowest processor gates every sub-epoch.
type DSGD struct {
	// Workers is the number of parallel workers p.
	Workers int

	walk mf.BlockWalk
}

// Name identifies the system in reports.
func (d *DSGD) Name() string { return fmt.Sprintf("dsgd-%d", d.Workers) }

// Epoch implements mf.Engine: p sub-epochs with rotating strata.
func (d *DSGD) Epoch(f *mf.Factors, train *sparse.COO, h mf.HyperParams) {
	p := max(1, d.Workers)
	d.walk.Walk(f, train, h, p, p)
}

// EpochMakespan models one DSGD epoch on heterogeneous workers with the
// given update rates: each of the p sub-epochs costs the *maximum* block
// time across workers (the barrier), with blocks sized by the equal row
// split — nnz/p² per block on average, all processed at each worker's own
// rate. Returns the epoch time in seconds.
//
// This is the quantitative form of the paper's Section 5 critique: with
// rates r_1..r_p, DSGD's epoch ≈ p · (nnz/p²) / min(r) = nnz/(p·min(r)),
// while a load-balanced split achieves nnz/Σr.
func EpochMakespan(nnz int64, rates []float64) (float64, error) {
	p := len(rates)
	if p == 0 {
		return 0, fmt.Errorf("related: no workers")
	}
	minRate := rates[0]
	for i, r := range rates {
		if r <= 0 {
			return 0, fmt.Errorf("related: rate[%d] = %v", i, r)
		}
		if r < minRate {
			minRate = r
		}
	}
	blockNNZ := float64(nnz) / float64(p*p)
	return float64(p) * blockNNZ / minRate, nil
}

// BalancedMakespan is the load-balanced reference: nnz/Σrates.
func BalancedMakespan(nnz int64, rates []float64) (float64, error) {
	if len(rates) == 0 {
		return 0, fmt.Errorf("related: no workers")
	}
	var sum float64
	for i, r := range rates {
		if r <= 0 {
			return 0, fmt.Errorf("related: rate[%d] = %v", i, r)
		}
		sum += r
	}
	return float64(nnz) / sum, nil
}
