package mf

import (
	"fmt"

	"hccmf/internal/sparse"
)

// Batched mirrors the execution shape of cuMF_SGD (the paper's reference
// [27]): a fixed pool of "thread group" goroutines (warps) under
// conflict-free block scheduling. Each stratum of the shard's block grid
// is one simulated kernel launch; its groups take row- and
// column-disjoint blocks, and the stratum boundary is the launch barrier.
// Batched walks the same BlockWalk as FPSGD, so its factors are
// bit-identical at any group count; it stays a type of its own because
// the paper's GPU workers, and the reports keyed on its batched-N name,
// tell it apart from the CPU engine.
type Batched struct {
	// Groups is the number of concurrent thread groups (≥1). On the real
	// GPU this is blocks×warps; here each group is a pool worker.
	Groups int

	BlockWalk
}

// Name implements Engine.
func (bt *Batched) Name() string { return fmt.Sprintf("batched-%d", bt.Groups) }

// Epoch implements Engine.
//
// lint:hotpath
func (bt *Batched) Epoch(f *Factors, train *sparse.COO, h HyperParams) {
	bt.Walk(f, train, h, gridSide(train.Cols, f.K), bt.Groups)
}
