// Package mf implements SGD-based matrix factorization: the latent factor
// model R ≈ P·Qᵀ, the stochastic gradient update rule with L2
// regularisation (the loss in the paper's Figure 1), and several execution
// engines — serial SGD, lock-free Hogwild!, FPSGD-style exclusive block
// scheduling for multicore CPUs, and the batched kernel that mirrors
// cuMF_SGD's GPU execution shape. HCC-MF workers run these kernels over
// their data shards.
package mf

import (
	"fmt"
	"math"

	"hccmf/internal/sparse"
)

// Factors holds the user matrix P (m×k) and item matrix Q (n×k) in flat
// row-major storage. Row u of P is P[u*K : (u+1)*K].
type Factors struct {
	M, N, K int
	P       []float32
	Q       []float32
}

// NewFactors allocates zeroed factor matrices.
func NewFactors(m, n, k int) *Factors {
	if m <= 0 || n <= 0 || k <= 0 {
		// lint:invariant dims are validated by ps.Config (m/n/k > 0) and the planner before factors are allocated; failing here is a broken plan.
		panic(fmt.Sprintf("mf: invalid factor dims m=%d n=%d k=%d", m, n, k))
	}
	return &Factors{M: m, N: n, K: k,
		P: make([]float32, m*k), Q: make([]float32, n*k)}
}

// NewFactorsInit allocates factors initialised so that the initial
// prediction p·q is distributed around meanRating: every entry is
// sqrt(meanRating/k) scaled by a uniform factor in [0.5, 1.5). This is the
// standard warm init used by LIBMF/FPSGD and keeps early epochs stable on
// 100-point scales.
func NewFactorsInit(m, n, k int, meanRating float64, rng *sparse.Rand) *Factors {
	f := NewFactors(m, n, k)
	if meanRating <= 0 {
		meanRating = 1
	}
	base := float32(math.Sqrt(meanRating / float64(k)))
	rng.FillFloat32(f.P, 0.5, base)
	rng.FillFloat32(f.Q, 0.5, base)
	return f
}

// Clone deep-copies the factors.
func (f *Factors) Clone() *Factors {
	out := NewFactors(f.M, f.N, f.K)
	copy(out.P, f.P)
	copy(out.Q, f.Q)
	return out
}

// PRow returns row u of P as a slice view.
func (f *Factors) PRow(u int32) []float32 {
	return f.P[int(u)*f.K : (int(u)+1)*f.K]
}

// QRow returns row i of Q as a slice view.
func (f *Factors) QRow(i int32) []float32 {
	return f.Q[int(i)*f.K : (int(i)+1)*f.K]
}

// Predict computes the model's rating estimate for (u, i).
func (f *Factors) Predict(u, i int32) float32 {
	return Dot(f.PRow(u), f.QRow(i))
}

// CopyFrom copies the contents of src (same shape required).
func (f *Factors) CopyFrom(src *Factors) {
	if f.M != src.M || f.N != src.N || f.K != src.K {
		// lint:invariant Factors shapes are fixed at construction; copying between mismatched shapes is a programmer bug.
		panic("mf: CopyFrom shape mismatch")
	}
	copy(f.P, src.P)
	copy(f.Q, src.Q)
}

// Validate reports the first non-finite factor entry, if any.
func (f *Factors) Validate() error {
	for i, v := range f.P {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("mf: P[%d] is non-finite (%v)", i, v)
		}
	}
	for i, v := range f.Q {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("mf: Q[%d] is non-finite (%v)", i, v)
		}
	}
	return nil
}

// Dot computes the inner product of two equal-length vectors with 4-way
// manual unrolling — the scalar stand-in for the paper's AVX512F inner
// product kernel.
func Dot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	// Advancing the slice headers (rather than indexing with i) lets the
	// compiler prove the constant indices in bounds and drop every
	// per-element bounds check; the accumulator order is unchanged.
	for len(a) >= 4 && len(b) >= 4 {
		s0 += float32(a[0] * b[0])
		s1 += float32(a[1] * b[1])
		s2 += float32(a[2] * b[2])
		s3 += float32(a[3] * b[3])
		a = a[4:]
		b = b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		s0 += float32(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}
