package mf

import (
	"fmt"
	"math"
)

// Schedule produces the learning rate for a given 0-based epoch. The
// paper's experiments fix γ = 0.005, but cuMF_SGD's reference
// implementation decays the rate, and decaying schedules are what
// production deployments of SGD-MF run; both are provided.
type Schedule interface {
	// Gamma reports the learning rate for the epoch.
	Gamma(epoch int) float32
	// Name identifies the schedule in reports.
	Name() string
}

// Constant is the paper's fixed learning rate.
type Constant struct {
	Rate float32
}

// Gamma implements Schedule.
func (c Constant) Gamma(int) float32 { return c.Rate }

// Name implements Schedule.
func (c Constant) Name() string { return fmt.Sprintf("const(%g)", c.Rate) }

// InverseDecay is cuMF_SGD's schedule: γ_t = γ0 / (1 + β·t^1.5).
type InverseDecay struct {
	Gamma0 float32
	Beta   float32
}

// Gamma implements Schedule.
func (d InverseDecay) Gamma(epoch int) float32 {
	if epoch < 0 {
		epoch = 0
	}
	t := float64(epoch)
	return d.Gamma0 / float32(1+float64(float64(d.Beta)*math.Pow(t, 1.5)))
}

// Name implements Schedule.
func (d InverseDecay) Name() string {
	return fmt.Sprintf("inverse(%g,%g)", d.Gamma0, d.Beta)
}

// BoldDriver adapts the rate to observed loss: grow slowly while the loss
// falls, cut sharply when it rises. Feed it the objective after each epoch
// via Observe.
type BoldDriver struct {
	// Rate is the current learning rate (set to the initial rate).
	Rate float32
	// Grow is the multiplicative increase on improvement (default 1.05).
	Grow float32
	// Shrink is the multiplicative cut on regression (default 0.5).
	Shrink float32

	prevLoss float64
	seen     bool
}

// Gamma implements Schedule.
func (b *BoldDriver) Gamma(int) float32 { return b.Rate }

// Name implements Schedule.
func (b *BoldDriver) Name() string { return "bold-driver" }

// Observe updates the rate from the post-epoch loss.
func (b *BoldDriver) Observe(loss float64) {
	grow := b.Grow
	if grow <= 1 {
		grow = 1.05
	}
	shrink := b.Shrink
	if shrink <= 0 || shrink >= 1 {
		shrink = 0.5
	}
	if b.seen && loss > b.prevLoss {
		b.Rate *= shrink
	} else if b.seen {
		b.Rate *= grow
	}
	b.prevLoss = loss
	b.seen = true
}

// RunScheduled executes n epochs with a per-epoch learning rate from the
// schedule, holding the regularisers fixed. BoldDriver schedules are fed
// the training loss after each epoch.
func (t *Trainer) RunScheduled(f *Factors, n int, s Schedule) {
	for i := 0; i < n; i++ {
		h := t.Hyper
		h.Gamma = s.Gamma(t.epochs)
		t.Engine.Epoch(f, t.Train, h)
		t.epochs++
		if bd, ok := s.(*BoldDriver); ok {
			bd.Observe(Loss(f, t.Train.Entries, t.Hyper))
		}
	}
}
