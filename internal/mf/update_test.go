package mf

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"hccmf/internal/sparse"
)

func TestUpdateOneReducesError(t *testing.T) {
	p := []float32{0.5, 0.5}
	q := []float32{0.5, 0.5}
	h := HyperParams{Gamma: 0.1, Lambda1: 0, Lambda2: 0}
	const r = 3.0
	before := math.Abs(float64(r - Dot(p, q)))
	for i := 0; i < 50; i++ {
		UpdateOne(p, q, r, h)
	}
	after := math.Abs(float64(r - Dot(p, q)))
	if after >= before {
		t.Fatalf("error did not shrink: %v → %v", before, after)
	}
	if after > 0.01 {
		t.Fatalf("did not converge to rating: residual %v", after)
	}
}

func TestUpdateOneReturnsError(t *testing.T) {
	p := []float32{1, 0}
	q := []float32{1, 0}
	h := HyperParams{Gamma: 0}
	if e := UpdateOne(p, q, 5, h); e != 4 {
		t.Fatalf("returned error = %v, want 4", e)
	}
}

func TestUpdateOneMatchesScalarReference(t *testing.T) {
	// The unrolled kernel must match a plain scalar implementation for
	// every vector length (tail handling).
	for k := 1; k <= 19; k++ {
		rng := sparse.NewRand(uint64(k))
		p := make([]float32, k)
		q := make([]float32, k)
		for i := range p {
			p[i] = rng.Float32()
			q[i] = rng.Float32()
		}
		pr := append([]float32(nil), p...)
		qr := append([]float32(nil), q...)
		h := HyperParams{Gamma: 0.01, Lambda1: 0.02, Lambda2: 0.03}
		const r = 3.5

		UpdateOne(p, q, r, h)

		// Reference: simultaneous update with pre-update values.
		e := r - Dot(pr, qr)
		for i := range pr {
			p0, q0 := pr[i], qr[i]
			pr[i] = p0 + h.Gamma*(e*q0-h.Lambda1*p0)
			qr[i] = q0 + h.Gamma*(e*p0-h.Lambda2*q0)
		}
		for i := range p {
			if math.Abs(float64(p[i]-pr[i])) > 1e-6 {
				t.Fatalf("k=%d: P[%d] = %v, want %v", k, i, p[i], pr[i])
			}
			if math.Abs(float64(q[i]-qr[i])) > 1e-6 {
				t.Fatalf("k=%d: Q[%d] = %v, want %v", k, i, q[i], qr[i])
			}
		}
	}
}

func TestUpdateOneRegularisationShrinks(t *testing.T) {
	// With rating 0 and pure regularisation pressure, norms must shrink.
	p := []float32{1, 1, 1, 1}
	q := []float32{0, 0, 0, 0}
	h := HyperParams{Gamma: 0.1, Lambda1: 0.5, Lambda2: 0.5}
	UpdateOne(p, q, 0, h)
	for i := range p {
		if p[i] >= 1 {
			t.Fatalf("λ1 did not shrink p: %v", p)
		}
	}
}

func TestUpdateBytesMatchesPaperModel(t *testing.T) {
	if got := UpdateBytes(128); got != 16*128+4 {
		t.Fatalf("UpdateBytes(128) = %d", got)
	}
	if got := UpdatesPerEntryFLOPs(32); got != 224 {
		t.Fatalf("FLOPs(32) = %d", got)
	}
}

func TestTrainEntriesLowersRMSE(t *testing.T) {
	rng := sparse.NewRand(8)
	m := sparse.NewCOO(50, 40, 500)
	for c := 0; c < 500; c++ {
		m.Add(int32(rng.Intn(50)), int32(rng.Intn(40)), 1+4*rng.Float32())
	}
	f := NewFactorsInit(50, 40, 8, m.MeanRating(), rng)
	h := HyperParams{Gamma: 0.01, Lambda1: 0.01, Lambda2: 0.01}
	before := RMSE(f, m.Entries)
	for ep := 0; ep < 30; ep++ {
		TrainEntries(f, m.Entries, h)
	}
	after := RMSE(f, m.Entries)
	if after >= before {
		t.Fatalf("training RMSE rose: %v → %v", before, after)
	}
}

func TestLossDecreasesUnderSGD(t *testing.T) {
	rng := sparse.NewRand(9)
	m := sparse.NewCOO(30, 30, 300)
	for c := 0; c < 300; c++ {
		m.Add(int32(rng.Intn(30)), int32(rng.Intn(30)), 1+4*rng.Float32())
	}
	f := NewFactorsInit(30, 30, 4, m.MeanRating(), rng)
	h := HyperParams{Gamma: 0.005, Lambda1: 0.01, Lambda2: 0.01}
	prev := Loss(f, m.Entries, h)
	for ep := 0; ep < 10; ep++ {
		TrainEntries(f, m.Entries, h)
		cur := Loss(f, m.Entries, h)
		if cur > prev*1.05 {
			t.Fatalf("epoch %d: loss rose %v → %v", ep, prev, cur)
		}
		prev = cur
	}
}

// TestRatingLayout guards the record layout the amd64 sweeps read
// directly: sparse.Rating is 12 bytes with U (int32), I (int32) and
// V (float32) at offsets 0, 4 and 8 — the same layout dataset's
// ratingWireLayout relies on for block reads.
func TestRatingLayout(t *testing.T) {
	var r sparse.Rating
	if unsafe.Sizeof(r) != 12 ||
		unsafe.Offsetof(r.U) != 0 || reflect.TypeOf(r.U).Kind() != reflect.Int32 ||
		unsafe.Offsetof(r.I) != 4 || reflect.TypeOf(r.I).Kind() != reflect.Int32 ||
		unsafe.Offsetof(r.V) != 8 || reflect.TypeOf(r.V).Kind() != reflect.Float32 {
		t.Fatalf("sparse.Rating layout changed (size %d, offsets %d/%d/%d); update update_amd64.s",
			unsafe.Sizeof(r), unsafe.Offsetof(r.U), unsafe.Offsetof(r.I), unsafe.Offsetof(r.V))
	}
}

// TestSweepsRejectOutOfRangeRows feeds TrainEntries and RMSE a rating
// whose U or I is negative or past the last row. Both must panic; the
// training sweep must have applied every earlier entry and nothing else,
// and no float next to P or Q may change. P and Q sit between guard
// regions of one backing array, capped at their length. The paired
// subtest puts the bad rating in either slice of a two-slice sweep. It
// runs on every sweep tier this host can run.
func TestSweepsRejectOutOfRangeRows(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		const m, n, k, guard = 5, 4, 7, 64
		const sentinel = float32(-123.25)
		h := HyperParams{Gamma: 0.01, Lambda1: 0.02, Lambda2: 0.03}
		good := []sparse.Rating{{U: 1, I: 2, V: 3}, {U: m - 1, I: n - 1, V: 1}, {U: 1, I: 0, V: 2}}
		bads := []sparse.Rating{
			{U: m, V: 3}, {U: -1, V: 3}, {I: n, V: 3}, {I: -1, V: 3},
			{U: math.MaxInt32, I: 1, V: 3}, {U: 2, I: math.MinInt32, V: 3},
		}
		mustPanic := func(t *testing.T, what string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted an out-of-range rating", what)
				}
			}()
			fn()
		}
		for _, bad := range bads {
			back := make([]float32, guard+m*k+guard+n*k+guard)
			for i := range back {
				back[i] = sentinel
			}
			po, qo := guard, guard+m*k+guard
			f := &Factors{M: m, N: n, K: k, P: back[po : po+m*k : po+m*k], Q: back[qo : qo+n*k : qo+n*k]}
			rng := sparse.NewRand(3)
			copy(f.P, randVec(rng, m*k))
			copy(f.Q, randVec(rng, n*k))
			ref := f.Clone()
			for _, e := range good {
				referenceUpdateOne(ref.PRow(e.U), ref.QRow(e.I), e.V, h)
			}
			entries := append(append(append([]sparse.Rating(nil), good...), bad), good...)

			mustPanic(t, fmt.Sprintf("TrainEntries(%+v)", bad), func() { TrainEntries(f, entries, h) })
			for i := range f.P {
				if math.Float32bits(f.P[i]) != math.Float32bits(ref.P[i]) {
					t.Fatalf("%+v: P[%d] = %v, want %v (only the entries before it applied)", bad, i, f.P[i], ref.P[i])
				}
			}
			for i := range f.Q {
				if math.Float32bits(f.Q[i]) != math.Float32bits(ref.Q[i]) {
					t.Fatalf("%+v: Q[%d] = %v, want %v (only the entries before it applied)", bad, i, f.Q[i], ref.Q[i])
				}
			}
			mustPanic(t, fmt.Sprintf("RMSE(%+v)", bad), func() { RMSE(f, entries) })
			mustPanic(t, fmt.Sprintf("RMSEParallel(%+v)", bad), func() { RMSEParallel(f, entries, 2) })
			for _, r := range [][2]int{{0, po}, {po + m*k, qo}, {qo + n*k, len(back)}} {
				for i := r[0]; i < r[1]; i++ {
					if back[i] != sentinel {
						t.Fatalf("%+v: float %d outside P and Q overwritten: %v", bad, i, back[i])
					}
				}
			}
		}
		t.Run("paired", pairRejectsOutOfRangeRows)
	})
}
