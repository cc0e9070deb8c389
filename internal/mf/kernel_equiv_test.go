package mf

import (
	"fmt"
	"math"
	"testing"

	"hccmf/internal/sparse"
)

// referenceUpdateOne is the unfused seed kernel: Dot, then the update
// sweep. The fused UpdateOne must match it bit for bit — the performance
// pass is not allowed to move the convergence trajectory (ISSUE 3
// acceptance: Figure 7 curves unchanged at fixed seed).
func referenceUpdateOne(p, q []float32, r float32, h HyperParams) float32 {
	e := r - Dot(p, q)
	ge := h.Gamma * e
	gl1 := h.Gamma * h.Lambda1
	gl2 := h.Gamma * h.Lambda2
	for i := range p {
		p0, q0 := p[i], q[i]
		p[i] = p0 + ge*q0 - gl1*p0
		q[i] = q0 + ge*p0 - gl2*q0
	}
	return e
}

func randVec(rng *sparse.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestUpdateOneMatchesReference(t *testing.T) {
	rng := sparse.NewRand(99)
	h := HyperParams{Gamma: 0.01, Lambda1: 0.02, Lambda2: 0.03}
	// Cover the unrolled body and every remainder tail, plus large k.
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 32, 33, 128} {
		for trial := 0; trial < 20; trial++ {
			p1, q1 := randVec(rng, k), randVec(rng, k)
			p2 := append([]float32(nil), p1...)
			q2 := append([]float32(nil), q1...)
			r := rng.Float32() * 5
			e1 := UpdateOne(p1, q1, r, h)
			e2 := referenceUpdateOne(p2, q2, r, h)
			if e1 != e2 {
				t.Fatalf("k=%d: error %v != reference %v", k, e1, e2)
			}
			for i := range p1 {
				if p1[i] != p2[i] || q1[i] != q2[i] {
					t.Fatalf("k=%d: factor %d diverged: p %v/%v q %v/%v",
						k, i, p1[i], p2[i], q1[i], q2[i])
				}
			}
		}
	}
}

// kernelVariant names one single-rating kernel implementation and the
// dimensions it supports.
type kernelVariant struct {
	name     string
	fn       func(p, q []float32, r float32, h HyperParams) float32
	ref      func(p, q []float32, r float32, h HyperParams) float32
	supports func(k int) bool
}

func kernelVariants() []kernelVariant {
	any := func(int) bool { return true }
	return []kernelVariant{
		{"UpdateOne", UpdateOne, referenceUpdateOne, any},
		{"updateOneGeneric", updateOneGeneric, referenceUpdateOne, any},
	}
}

// repeatedEntries returns m's entries with back-to-back repeats mixed in:
// the same rating twice, the same user on the next item and the same item
// for the next user, so a sweep reads rows it has just written.
func repeatedEntries(m *sparse.COO) []sparse.Rating {
	out := make([]sparse.Rating, 0, 2*len(m.Entries))
	for idx, e := range m.Entries {
		out = append(out, e)
		if idx%5 == 0 {
			out = append(out, e,
				sparse.Rating{U: e.U, I: (e.I + 1) % int32(m.Cols), V: e.V},
				sparse.Rating{U: (e.U + 1) % int32(m.Rows), I: e.I, V: e.V})
		}
	}
	return out
}

// TestKernelVariantsMatchReference sweeps every kernel entry point — the
// exported UpdateOne (the build's sweep kernel on one entry) and the
// portable kernel — across k = 1..160 (every remainder shape, including
// non-multiples of 4 and 8) and pins each bit-for-bit to its reference
// accumulation order. The sumSqErr subtest pins the build's evaluation
// loop (the SSE sqErrSweep on amd64) to the Go loop at the same k, over
// entries with repeated users and items.
func TestKernelVariantsMatchReference(t *testing.T) {
	h := HyperParams{Gamma: 0.01, Lambda1: 0.02, Lambda2: 0.03}
	for _, v := range kernelVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rng := sparse.NewRand(99)
			for k := 1; k <= 160; k++ {
				if !v.supports(k) {
					continue
				}
				for trial := 0; trial < 8; trial++ {
					p1, q1 := randVec(rng, k), randVec(rng, k)
					p2 := append([]float32(nil), p1...)
					q2 := append([]float32(nil), q1...)
					r := rng.Float32() * 5
					e1 := v.fn(p1, q1, r, h)
					e2 := v.ref(p2, q2, r, h)
					if e1 != e2 {
						t.Fatalf("k=%d trial %d: error %v != reference %v", k, trial, e1, e2)
					}
					for i := range p1 {
						if p1[i] != p2[i] || q1[i] != q2[i] {
							t.Fatalf("k=%d trial %d: factor %d diverged: p %v/%v q %v/%v",
								k, trial, i, p1[i], p2[i], q1[i], q2[i])
						}
					}
				}
			}
		})
	}
	t.Run("sumSqErr", func(t *testing.T) {
		m := trainSet(t, 9, 7, 60, 5)
		entries := repeatedEntries(m)
		for k := 1; k <= 160; k++ {
			f := NewFactorsInit(m.Rows, m.Cols, k, m.MeanRating(), sparse.NewRand(uint64(k)))
			got, want := sumSqErr(f, entries), sumSqErrGeneric(f, entries)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: sumSqErr %v != Go loop %v", k, got, want)
			}
		}
	})
}

// TestTrainEntriesMatchesRowViews pins TrainEntries — the build's sweep
// kernel — to a per-entry referenceUpdateOne sweep over PRow/QRow views at
// k = 1..160, so every tail shape is covered, over entries that revisit
// users and items back to back.
func TestTrainEntriesMatchesRowViews(t *testing.T) {
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	m := trainSet(t, 40, 30, 2000, 21)
	entries := repeatedEntries(m)
	for k := 1; k <= 160; k++ {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			f1 := NewFactorsInit(m.Rows, m.Cols, k, m.MeanRating(), sparse.NewRand(4))
			f2 := f1.Clone()
			TrainEntries(f1, entries, h)
			for _, e := range entries {
				referenceUpdateOne(f2.PRow(e.U), f2.QRow(e.I), e.V, h)
			}
			for i := range f1.P {
				if f1.P[i] != f2.P[i] {
					t.Fatalf("P[%d] diverged: %v != %v", i, f1.P[i], f2.P[i])
				}
			}
			for i := range f1.Q {
				if f1.Q[i] != f2.Q[i] {
					t.Fatalf("Q[%d] diverged: %v != %v", i, f1.Q[i], f2.Q[i])
				}
			}
		})
	}
}

// TestTrainEntriesKernelMatchesReference pins a whole training sweep run
// through each kernel entry point — the portable kernel and UpdateOne (the
// build's sweep kernel on one entry), one per-entry call over PRow/QRow
// views — to both TrainEntries and the referenceUpdateOne sweep, so the
// two kernels stay interchangeable across an epoch, not just per rating.
func TestTrainEntriesKernelMatchesReference(t *testing.T) {
	h := HyperParams{Gamma: 0.01, Lambda1: 0.005, Lambda2: 0.005}
	cases := []struct {
		name string
		fn   func(p, q []float32, r float32, h HyperParams) float32
	}{
		{"generic", updateOneGeneric},
		{"UpdateOne", UpdateOne},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := trainSet(t, 40, 30, 2000, 21)
			fk := NewFactorsInit(m.Rows, m.Cols, 24, m.MeanRating(), sparse.NewRand(4))
			ft := fk.Clone()
			fr := fk.Clone()
			TrainEntries(ft, m.Entries, h)
			for _, e := range m.Entries {
				tc.fn(fk.PRow(e.U), fk.QRow(e.I), e.V, h)
				referenceUpdateOne(fr.PRow(e.U), fr.QRow(e.I), e.V, h)
			}
			for i := range fk.P {
				if fk.P[i] != fr.P[i] || fk.P[i] != ft.P[i] {
					t.Fatalf("P[%d] diverged: kernel %v, reference %v, TrainEntries %v", i, fk.P[i], fr.P[i], ft.P[i])
				}
			}
			for i := range fk.Q {
				if fk.Q[i] != fr.Q[i] || fk.Q[i] != ft.Q[i] {
					t.Fatalf("Q[%d] diverged: kernel %v, reference %v, TrainEntries %v", i, fk.Q[i], fr.Q[i], ft.Q[i])
				}
			}
		})
	}
}
