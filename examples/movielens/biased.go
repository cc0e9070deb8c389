package main

import (
	"math"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// BiasedFactors is the bias-augmented factor model used by most production
// recommenders (and by the MF variants the paper's introduction cites as
// the motivation for fast MF training):
//
//	r̂(u,i) = μ + b_u + b_i + p_u·q_i
//
// where μ is the global mean, b_u/b_i are user/item offsets, and p·q the
// interaction term. Biases soak up the large per-user/per-item effects so
// the latent factors model only interactions — typically worth a few
// percent of RMSE on skewed rating data.
type BiasedFactors struct {
	*mf.Factors
	// Mu is the global rating mean.
	Mu float32
	// BU and BI are per-user and per-item bias terms.
	BU []float32
	BI []float32
}

// NewBiasedFactorsInit builds a biased model: biases start at zero, the
// interaction factors small (most of the initial prediction comes from μ).
func NewBiasedFactorsInit(m, n, k int, meanRating float64, rng *sparse.Rand) *BiasedFactors {
	b := &BiasedFactors{
		Factors: mf.NewFactors(m, n, k),
		Mu:      float32(meanRating),
		BU:      make([]float32, m),
		BI:      make([]float32, n),
	}
	// Small symmetric init: interactions start near zero.
	scale := float32(0.1 / math.Sqrt(float64(k)))
	for i := range b.P {
		b.P[i] = scale * (float32(rng.Float32()) - 0.5)
	}
	for i := range b.Q {
		b.Q[i] = scale * (float32(rng.Float32()) - 0.5)
	}
	return b
}

// Predict computes μ + b_u + b_i + p·q.
func (b *BiasedFactors) Predict(u, i int32) float32 {
	return b.Mu + b.BU[u] + b.BI[i] + mf.Dot(b.PRow(u), b.QRow(i))
}

// UpdateOne applies one biased SGD step: with e = r − r̂,
//
//	b_u += γ(e − λ1·b_u)    b_i += γ(e − λ2·b_i)
//	p   += γ(e·q − λ1·p)    q   += γ(e·p − λ2·q)
//
// and returns e. Each product is wrapped in float32(...), which rounds it,
// so arm64 does not fuse it with its add and the example's RMSEs are the
// same on every port (DESIGN.md §16).
func (b *BiasedFactors) UpdateOne(u, i int32, r float32, h mf.HyperParams) float32 {
	e := r - b.Predict(u, i)
	b.BU[u] += float32(h.Gamma * (e - float32(h.Lambda1*b.BU[u])))
	b.BI[i] += float32(h.Gamma * (e - float32(h.Lambda2*b.BI[i])))
	p, q := b.PRow(u), b.QRow(i)
	ge := h.Gamma * e
	gl1 := h.Gamma * h.Lambda1
	gl2 := h.Gamma * h.Lambda2
	for f := range p {
		p0, q0 := p[f], q[f]
		p[f] = p0 + float32(ge*q0) - float32(gl1*p0)
		q[f] = q0 + float32(ge*p0) - float32(gl2*q0)
	}
	return e
}

// Epoch runs one in-order SGD pass over the entries.
func (b *BiasedFactors) Epoch(entries []sparse.Rating, h mf.HyperParams) {
	for _, e := range entries {
		b.UpdateOne(e.U, e.I, e.V, h)
	}
}

// RMSE evaluates the biased model on the entries.
func (b *BiasedFactors) RMSE(entries []sparse.Rating) float64 {
	if len(entries) == 0 {
		return 0
	}
	var sum float64
	for _, e := range entries {
		d := float64(e.V - b.Predict(e.U, e.I))
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(entries)))
}

// Validate reports the first non-finite parameter, if any.
func (b *BiasedFactors) Validate() error {
	if err := b.Factors.Validate(); err != nil {
		return err
	}
	for _, v := range b.BU {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return errNonFinite("BU")
		}
	}
	for _, v := range b.BI {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return errNonFinite("BI")
		}
	}
	return nil
}

type biasedErr string

func (e biasedErr) Error() string { return string(e) }

func errNonFinite(field string) error {
	return biasedErr("movielens: non-finite value in " + field)
}
