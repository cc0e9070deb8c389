// Package metrics implements the paper's evaluation quantities:
// "computing power" (Eq. 8 — rating updates per second sustained over a
// run) and "computing power utilization" (actual over ideal, where the
// ideal is the sum of every processor's standalone computing power). It
// also carries the convergence-curve record used for Figure 7.
//
// It stays apart from internal/obs because it computes the paper's
// Eq. 8, Table 4 and Figure 7 quantities from a run's results, after the
// fact, and holds no run instruments; obs measures a run while it is in
// flight.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ComputingPower implements Eq. 8: nnz·epochs / cost_time, in updates/s.
func ComputingPower(nnz int64, epochs int, costTime float64) float64 {
	if costTime <= 0 {
		// lint:invariant inputs are simulator outputs (cost-model times), never user input; a non-positive time means the simulation itself broke.
		panic(fmt.Sprintf("metrics: cost time %v", costTime))
	}
	if epochs < 0 || nnz < 0 {
		// lint:invariant workload terms come from a dataset spec validated at generation time.
		panic(fmt.Sprintf("metrics: negative workload nnz=%d epochs=%d", nnz, epochs))
	}
	return float64(nnz) * float64(epochs) / costTime
}

// IdealPower sums standalone computing powers — the denominator of the
// utilization metric.
func IdealPower(perDevice []float64) float64 {
	var sum float64
	for i, p := range perDevice {
		if p <= 0 {
			// lint:invariant device powers are computed from calibrated update rates; non-positive means a corrupted profile.
			panic(fmt.Sprintf("metrics: device %d power %v", i, p))
		}
		sum += p
	}
	return sum
}

// Utilization reports actual/ideal, the paper's Table 4 headline metric.
func Utilization(actual, ideal float64) float64 {
	if ideal <= 0 {
		// lint:invariant see ComputingPower: operands are simulator outputs only.
		panic(fmt.Sprintf("metrics: ideal power %v", ideal))
	}
	if actual < 0 {
		// lint:invariant see ComputingPower: operands are simulator outputs only.
		panic(fmt.Sprintf("metrics: actual power %v", actual))
	}
	return actual / ideal
}

// ConvergencePoint is one sample of a training curve.
type ConvergencePoint struct {
	Epoch int
	// Time is the cumulative (simulated) training time in seconds.
	Time float64
	// RMSE is the held-out root mean squared error after the epoch.
	RMSE float64
}

// Curve is a labelled convergence trajectory (one line of Figure 7).
type Curve struct {
	Label  string
	Points []ConvergencePoint
}

// Append records one epoch's sample.
func (c *Curve) Append(epoch int, time, rmse float64) {
	c.Points = append(c.Points, ConvergencePoint{Epoch: epoch, Time: time, RMSE: rmse})
}

// Final reports the last RMSE (0 if empty).
func (c *Curve) Final() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].RMSE
}

// TimeToRMSE reports the earliest cumulative time at which the curve
// reaches target or below, and whether it ever does. Speedup claims in
// Figure 7(d–f) compare these times across methods.
func (c *Curve) TimeToRMSE(target float64) (float64, bool) {
	for _, p := range c.Points {
		if p.RMSE <= target {
			return p.Time, true
		}
	}
	return 0, false
}

// Format renders the curve as "epoch time rmse" lines.
func (c *Curve) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", c.Label)
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%4d %12.4f %10.6f\n", p.Epoch, p.Time, p.RMSE)
	}
	return b.String()
}

// Speedup reports how much faster a is than b at reaching the given RMSE:
// time_b / time_a. The second return is false when either curve never
// reaches the target.
func Speedup(a, b *Curve, target float64) (float64, bool) {
	ta, oka := a.TimeToRMSE(target)
	tb, okb := b.TimeToRMSE(target)
	if !oka || !okb || ta <= 0 {
		return 0, false
	}
	return tb / ta, true
}

// TimeToRMSEInterp is TimeToRMSE with linear interpolation between epoch
// samples, removing the epoch-granularity cliff from speedup comparisons.
func (c *Curve) TimeToRMSEInterp(target float64) (float64, bool) {
	for i, p := range c.Points {
		if p.RMSE > target {
			continue
		}
		if i == 0 {
			return p.Time, true
		}
		prev := c.Points[i-1]
		span := prev.RMSE - p.RMSE
		if span <= 0 {
			return p.Time, true
		}
		f := (prev.RMSE - target) / span
		return prev.Time + f*(p.Time-prev.Time), true
	}
	return 0, false
}

// RobustSpeedup reports the median of interpolated time-to-target ratios
// (time_b / time_a) over several targets spanning the RMSE range both
// curves cover. It is the stable version of the paper's Figure 7(d–f)
// speedup arrows: a single target sits on an epoch boundary and flips
// with the seed; the median over the shared descent does not.
func RobustSpeedup(a, b *Curve, nTargets int) (float64, bool) {
	if len(a.Points) == 0 || len(b.Points) == 0 || nTargets < 1 {
		return 0, false
	}
	lo := math.Max(minRMSE(a), minRMSE(b))
	hi := math.Min(a.Points[0].RMSE, b.Points[0].RMSE)
	if !(hi > lo) {
		return 0, false
	}
	var ratios []float64
	for i := 1; i <= nTargets; i++ {
		// Sample strictly inside (lo, hi); endpoints are degenerate.
		target := lo + (hi-lo)*float64(i)/float64(nTargets+1)
		ta, oka := a.TimeToRMSEInterp(target)
		tb, okb := b.TimeToRMSEInterp(target)
		if oka && okb && ta > 0 {
			ratios = append(ratios, tb/ta)
		}
	}
	if len(ratios) == 0 {
		return 0, false
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], true
}

func minRMSE(c *Curve) float64 {
	m := math.Inf(1)
	for _, p := range c.Points {
		if p.RMSE < m {
			m = p.RMSE
		}
	}
	return m
}
