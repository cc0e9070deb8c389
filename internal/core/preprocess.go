package core

import (
	"fmt"

	"hccmf/internal/dataset"
)

// PreprocessEstimate is the simulated cost of the paper's pre-training
// workflow (Figure 4, steps ① to ③): the server shuffles the rating
// matrix, block-sorts it by row for cache locality, cuts the row grid, and
// distributes every worker's shard and initial feature rows over its
// channel. Preprocessing runs once per job, which is why the paper treats
// it separately from the epoch loop.
type PreprocessEstimate struct {
	// Shuffle is the Fisher-Yates pass over the triplets.
	Shuffle float64
	// Sort is the block sort by row (the cache-hit-rate trick the paper
	// adds to cuMF_SGD's grid problem).
	Sort float64
	// Partition is the grid cut: a counting pass plus the prefix walk.
	Partition float64
	// Distribute is the initial shard + feature copy to the workers,
	// channels in parallel (the slowest worker gates it).
	Distribute float64
}

// Total sums the stages.
func (p PreprocessEstimate) Total() float64 {
	return p.Shuffle + p.Sort + p.Partition + p.Distribute
}

// String renders the stage breakdown.
func (p PreprocessEstimate) String() string {
	return fmt.Sprintf("shuffle=%.4fs sort=%.4fs partition=%.4fs distribute=%.4fs total=%.4fs",
		p.Shuffle, p.Sort, p.Partition, p.Distribute, p.Total())
}

// tripleBytes is the in-memory size of one rating triplet (u, i int32 +
// float32 rating).
const tripleBytes = 12

// EstimatePreprocess models the pre-training stages on the server's memory
// system and the workers' channels. All server-side stages are
// bandwidth-bound passes over the nnz triplets:
//
//   - shuffle: one read + one write pass (Fisher-Yates touches every slot);
//   - sort: a 4-pass radix-style block sort (the paper sorts within
//     blocks, not globally, so comparison log-factors do not apply);
//   - partition: one counting pass plus a negligible prefix walk.
//
// Distribution moves each worker's shard plus its initial P rows and the
// initial Q over its own channel; channels run in parallel (Figure 2), so
// the slowest worker gates the stage.
func EstimatePreprocess(plat Platform, spec dataset.Spec, plan Plan) (PreprocessEstimate, error) {
	if len(plan.Platform.Workers) > 0 {
		plat = plan.Platform
	}
	if err := plat.Validate(); err != nil {
		return PreprocessEstimate{}, err
	}
	if len(plan.Partition) != len(plat.Workers) {
		return PreprocessEstimate{}, fmt.Errorf("core: plan has %d shares for %d workers",
			len(plan.Partition), len(plat.Workers))
	}
	bw := plat.Server.MemBandwidth
	nnzBytes := float64(spec.NNZ) * tripleBytes

	est := PreprocessEstimate{
		Shuffle:   2 * float64(nnzBytes) / bw,
		Sort:      4 * nnzBytes / bw,
		Partition: nnzBytes / bw,
	}
	bytesPer := float64(plan.Strategy.Encoding.BytesPerParam())
	for i, w := range plat.Workers {
		share := plan.Partition[i]
		shard := share * nnzBytes
		// Initial features: the worker's P rows plus the full Q.
		features := float64((float64(share*float64(plan.M)) + float64(plan.N)) * float64(plan.K) * bytesPer)
		t := (float64(shard) + features) / w.Bus.Bandwidth()
		if t > est.Distribute {
			est.Distribute = t
		}
	}
	return est, nil
}
