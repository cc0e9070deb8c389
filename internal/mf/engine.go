package mf

import "hccmf/internal/sparse"

// Engine is one SGD execution strategy. An Engine runs full epochs over a
// training set against shared factors; how it parallelises (or doesn't) is
// the strategy.
type Engine interface {
	// Name identifies the engine in reports ("serial", "hogwild", ...).
	Name() string
	// Epoch performs one full pass over train, updating f in place. The
	// block engines (FPSGD, Batched, related.DSGD) may permute
	// train.Entries: their first epoch over a shard lays it out in block
	// order in place, keeping every rating. Callers that need the
	// original order pass a clone.
	Epoch(f *Factors, train *sparse.COO, h HyperParams)
}

// Trainer binds an engine to fixed data and hyper-parameters and tracks
// epoch count; the examples and baselines drive training through it.
type Trainer struct {
	Engine Engine
	Train  *sparse.COO
	Test   *sparse.COO
	Hyper  HyperParams

	epochs int
}

// Run executes n epochs.
func (t *Trainer) Run(f *Factors, n int) {
	for i := 0; i < n; i++ {
		t.Engine.Epoch(f, t.Train, t.Hyper)
		t.epochs++
	}
}

// Epochs reports how many epochs have run.
func (t *Trainer) Epochs() int { return t.epochs }

// TestRMSE evaluates on the held-out split (or the training split if no
// test data was provided).
func (t *Trainer) TestRMSE(f *Factors) float64 {
	if t.Test != nil && t.Test.NNZ() > 0 {
		return RMSE(f, t.Test.Entries)
	}
	return RMSE(f, t.Train.Entries)
}
