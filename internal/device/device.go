// Package device models the processors of the paper's test platform: two
// Intel Xeon Gold 6242 CPUs, an NVIDIA RTX 2080, an RTX 2080 Super, and
// (for the motivation experiments of Figure 3) a Tesla V100.
//
// Since this reproduction has no access to the physical parts, every device
// carries calibration data taken from the paper's own measurements:
// per-dataset SGD update rates from Table 4 ("computing power",
// updates/second over a 20-epoch run) and runtime memory bandwidths from
// Table 2. The simulated platform replays those rates, so all timing
// results inherit the paper's processor ratios.
package device

import (
	"fmt"
	"math"
)

// Kind distinguishes processor classes.
type Kind int

const (
	// CPU is a multicore host processor.
	CPU Kind = iota
	// GPU is a discrete accelerator reached over PCIe.
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is one processor with its calibrated performance profile.
type Device struct {
	Name    string
	Kind    Kind
	Threads int // configured worker threads (CPU cores×HT or GPU resident threads)

	// MemBandwidth is the measured runtime memory bandwidth in bytes/s
	// (Table 2), the B_i of the paper's cost model Eq. 2.
	MemBandwidth float64

	// PriceUSD is the launch street price used for Figure 3(b).
	PriceUSD float64

	// HasCopyEngine reports whether the device can overlap transfers with
	// compute (GPU copy engines; CPUs only via an integrated GPU's BLT
	// engine — Strategy 3 in Section 3.4).
	HasCopyEngine bool

	// rates maps dataset name → measured updates/second (Table 4).
	rates map[string]float64
	// baseRate is the fallback updates/second for unknown datasets
	// (the Netflix calibration point).
	baseRate float64
}

// UpdateRate reports the device's calibrated SGD throughput in rating
// updates per second when training the named dataset. Unknown datasets fall
// back to the Netflix calibration point scaled by a working-set factor
// identical for all devices (so ratios stay honest).
func (d *Device) UpdateRate(dataset string) float64 {
	if r, ok := d.rates[dataset]; ok {
		return r
	}
	return d.baseRate
}

// Load-dependence of collaborative throughput. Two opposing effects make
// DP0's proportional split imbalanced (the gap Algorithm 1 closes,
// Figure 8):
//
//   - gpuLoadBias: GPU memory bandwidth rises slightly when the assigned
//     share shrinks (Table 2 measures 2080: 378.6 → 388.8 GB/s going from
//     the whole input to a DP0 share), so GPUs finish a touch early.
//   - cpuLoadFloor: CPU workers lose efficiency on small shards — the
//     fixed per-epoch costs (thread-pool dispatch, block-grid setup) stop
//     amortising — so CPUs become the stragglers. This is why the paper's
//     Figure 9 sees ordinary workers contribute >80% but never 100% of
//     their standalone power.
const (
	gpuLoadBias  = 0.04
	cpuLoadFloor = 0.85
)

// EffectiveRate reports the update rate when the device is assigned the
// given share of the input data (share ∈ (0,1]). Calibration rates were
// measured at share 1 ("IW" in Table 2), so the factor is 1 there.
func (d *Device) EffectiveRate(dataset string, share float64) float64 {
	r := d.UpdateRate(dataset)
	if share <= 0 || share > 1 {
		share = 1
	}
	if d.Kind == GPU {
		r *= 1 + float64(gpuLoadBias*(1-share))
	} else {
		r *= cpuLoadFloor + float64((1-cpuLoadFloor)*share)
	}
	return r
}

// RuntimeBandwidth reports the measured memory bandwidth when the device
// holds the given share of the input, reproducing Table 2's observation:
// GPU bandwidth rises slightly on smaller working sets while CPU bandwidth
// is flat.
func (d *Device) RuntimeBandwidth(share float64) float64 {
	if share <= 0 || share > 1 {
		share = 1
	}
	if d.Kind == GPU {
		return d.MemBandwidth * (1 + float64(gpuLoadBias*(1-share)))
	}
	return d.MemBandwidth
}

// EffectiveBandwidth reports the memory traffic the device sustains while
// updating the named dataset, in bytes/s: rate × (16k+4) for the model's
// per-update traffic. It is the B_i that makes the paper's Eq. 2 agree
// with the measured update rates.
func (d *Device) EffectiveBandwidth(dataset string, k int) float64 {
	return d.UpdateRate(dataset) * float64(16*k+4)
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s,%dT)", d.Name, d.Kind, d.Threads)
}

const gb = 1e9

// Dataset keys of the calibration tables (matching package dataset names).
const (
	dsNetflix = "netflix"
	dsR1      = "r1"
	dsR1Star  = "r1star"
	dsR2      = "r2"
	dsML20M   = "ml-20m"
)

// Xeon6242 returns an Intel Xeon Gold 6242 configured with the given
// thread count. The paper uses 24T (full), 16T (overall-performance runs)
// and 10T (the deliberately weakened "6242l" used to add heterogeneity).
// Rates for the measured 24T/16T points come straight from Table 4; other
// thread counts scale by the empirical exponent fitted between them.
func Xeon6242(threads int) *Device {
	if threads < 1 {
		// lint:invariant thread counts are validated at the CLI boundary (hccmf-sim parseWorker) and fixed in presets elsewhere; non-positive is a wiring bug.
		panic("device: Xeon6242 needs ≥1 thread")
	}
	// Table 4 measured updates/s at 24 threads.
	base := map[string]float64{
		dsNetflix: 348790567,
		dsR1:      190891071,
		dsR1Star:  190891071, // R1* shares R1's profile (same dims, denser)
		dsR2:      266293289,
		dsML20M:   261609815,
	}
	at16 := map[string]float64{
		dsNetflix: 272502189.3,
		dsR1:      191469060.9,
		dsR1Star:  191469060.9,
		dsR2:      212851540,
		dsML20M:   250860330,
	}
	// Thread scaling exponent fitted on the Netflix pair; sublinear because
	// SGD on CPUs is bandwidth-bound before it is core-bound.
	alpha := math.Log(at16[dsNetflix]/base[dsNetflix]) / math.Log(16.0/24.0)
	scale := math.Pow(float64(threads)/24.0, alpha)

	rates := make(map[string]float64, len(base))
	for ds, r := range base {
		switch threads {
		case 24:
			rates[ds] = r
		case 16:
			rates[ds] = at16[ds]
		default:
			rates[ds] = r * scale
		}
	}
	// Memory bandwidth: 67.3 GB/s measured at full threads (Table 2),
	// 39.3 GB/s at the 10-thread configuration; interpolate linearly on
	// threads between those two anchors.
	var bw float64
	switch {
	case threads >= 24:
		bw = 67.3 * gb
	case threads <= 10:
		bw = 39.3 * gb * float64(threads) / 10
	default:
		bw = (39.3 + (67.3-39.3)*float64(threads-10)/14.0) * gb
	}
	name := "6242"
	if threads <= 10 {
		name = "6242l" // the paper's label for the weakened CPU
	}
	return &Device{
		Name:         fmt.Sprintf("%s-%dT", name, threads),
		Kind:         CPU,
		Threads:      threads,
		MemBandwidth: bw,
		PriceUSD:     2529,
		rates:        rates,
		baseRate:     rates[dsNetflix],
	}
}

// RTX2080 returns the NVIDIA GeForce RTX 2080 profile (41216 resident
// threads in the paper's configuration).
func RTX2080() *Device {
	rates := map[string]float64{
		dsNetflix: 918333483.2,
		dsR1:      801190194,
		dsR1Star:  801190194,
		dsR2:      339096219.3,
		dsML20M:   835890148.7,
	}
	return &Device{
		Name: "2080", Kind: GPU, Threads: 41216,
		MemBandwidth:  378.6 * gb,
		PriceUSD:      699,
		HasCopyEngine: true,
		rates:         rates,
		baseRate:      rates[dsNetflix],
	}
}

// RTX2080Super returns the NVIDIA GeForce RTX 2080 Super profile (43008
// resident threads).
func RTX2080Super() *Device {
	rates := map[string]float64{
		dsNetflix: 1052866849,
		dsR1:      939313585.8,
		dsR1Star:  939313585.8,
		dsR2:      354261902.7,
		dsML20M:   905200490.3,
	}
	return &Device{
		Name: "2080S", Kind: GPU, Threads: 43008,
		MemBandwidth:  407.0 * gb,
		PriceUSD:      719,
		HasCopyEngine: true,
		rates:         rates,
		baseRate:      rates[dsNetflix],
	}
}

// TeslaV100 returns the Tesla V100 profile used only in the Figure 3
// motivation study. The paper reports no Table 4 row for it; rates scale
// the 2080S profile by the ratio that reproduces Figure 3(a)'s "6242-2080S
// is close to V100" observation.
func TeslaV100() *Device {
	const v100Over2080S = 1.33
	s := RTX2080Super()
	rates := make(map[string]float64, len(s.rates))
	for ds, r := range s.rates {
		rates[ds] = r * v100Over2080S
	}
	return &Device{
		Name: "V100", Kind: GPU, Threads: 5120 * 16,
		MemBandwidth:  900 * gb, // HBM2
		PriceUSD:      8999,
		HasCopyEngine: true,
		rates:         rates,
		baseRate:      rates[dsNetflix],
	}
}
