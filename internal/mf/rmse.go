package mf

import (
	"math"
	"runtime"
	"sync"

	"hccmf/internal/sparse"
)

// RMSE computes the root mean squared error of the model's predictions
// over the given entries. An empty entry set yields 0.
func RMSE(f *Factors, entries []sparse.Rating) float64 {
	if len(entries) == 0 {
		return 0
	}
	return math.Sqrt(sumSqErr(f, entries) / float64(len(entries)))
}

// sumSqErrGeneric accumulates Σ(r − p·q)² over entries. Through the
// build's sumSqErr it is the shared inner loop of RMSE and the parallel
// evaluator workers — in Go under !amd64 || noasm, as the SSE sqErrSweep
// on amd64, which matches it bit for bit. Row slicing is inlined (as in
// TrainEntries) so the flat P/Q base pointers and K stay in registers, and
// the dot product uses Dot's exact partial-sum order so the result is
// bit-identical to calling f.Predict per entry.
//
// lint:hotpath
func sumSqErrGeneric(f *Factors, entries []sparse.Rating) float64 {
	k := f.K
	fp, fq := f.P, f.Q
	var sum float64
	for idx := range entries {
		e := entries[idx]
		po := int(e.U) * k
		qo := int(e.I) * k
		p := fp[po : po+k]
		q := fq[qo : qo+k : qo+k]
		var s0, s1, s2, s3 float32
		for len(p) >= 4 && len(q) >= 4 {
			s0 += p[0] * q[0]
			s1 += p[1] * q[1]
			s2 += p[2] * q[2]
			s3 += p[3] * q[3]
			p = p[4:]
			q = q[4:]
		}
		for i := 0; i < len(p) && i < len(q); i++ {
			s0 += p[i] * q[i]
		}
		d := float64(e.V - (s0 + s1 + s2 + s3))
		sum += d * d
	}
	return sum
}

// RMSEParallel computes RMSE with up to workers chunks evaluated
// concurrently. Results are identical to RMSE up to float64 summation
// order: the chunking math and the final left-to-right fold are unchanged
// from the seed implementation, so the reported value is bit-identical for
// a given (n, workers).
//
// Evaluation runs on a lazily started package-level evaluator pool and a
// reused partial-sum buffer, so warm calls allocate nothing. The pool's
// mutex serialises concurrent RMSEParallel calls; every current caller
// (per-epoch observers, benchmarks) evaluates sequentially anyway.
//
// lint:hotpath
func RMSEParallel(f *Factors, entries []sparse.Rating, workers int) float64 {
	n := len(entries)
	if n == 0 {
		return 0
	}
	if workers < 2 || n < 1<<14 {
		return RMSE(f, entries)
	}
	chunk := (n + workers - 1) / workers
	nchunks := (n + chunk - 1) / chunk

	rmseEval.once.Do(startRMSEEval)
	rmseEval.mu.Lock()
	defer rmseEval.mu.Unlock()
	sums := rmseSums(nchunks)
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		rmseEval.wg.Add(1)
		rmseEval.tasks <- rmseTask{
			f: f, entries: entries[lo:hi], out: &sums[w], wg: &rmseEval.wg,
		}
	}
	rmseEval.wg.Wait()
	var total float64
	for _, s := range sums {
		total += s
	}
	return math.Sqrt(total / float64(n))
}

// rmseTask is one chunk of a parallel RMSE evaluation; the worker writes
// the chunk's squared-error sum to out (exclusively owned per task) before
// signalling wg.
type rmseTask struct {
	f       *Factors
	entries []sparse.Rating
	out     *float64
	wg      *sync.WaitGroup
}

// rmseEval is the package-level evaluator pool: started once, reused by
// every RMSEParallel call so warm evaluations are allocation-free.
var rmseEval struct {
	once  sync.Once
	mu    sync.Mutex
	tasks chan rmseTask
	sums  []float64
	wg    sync.WaitGroup
}

func startRMSEEval() {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	rmseEval.tasks = make(chan rmseTask, workers)
	// Pre-size the partial-sum buffer for the common case (nchunks ≤ the
	// caller's worker count ≤ this pool size) so steady-state RMSEParallel
	// calls stay off the allocator entirely.
	rmseEval.sums = make([]float64, workers)
	for i := 0; i < workers; i++ {
		go rmseEvalWorker(rmseEval.tasks)
	}
}

// rmseSums returns the shared partial-sum buffer sized to n, growing it for
// callers that request more chunks than startRMSEEval provisioned. Callers
// hold rmseEval.mu.
func rmseSums(n int) []float64 {
	if cap(rmseEval.sums) < n {
		rmseEval.sums = make([]float64, n)
	}
	return rmseEval.sums[:n]
}

// rmseEvalWorker drains evaluation chunks for the lifetime of the process.
// Each task's out pointer is owned exclusively by that task; wg.Wait in
// RMSEParallel orders the reads.
//
// lint:hotpath
func rmseEvalWorker(tasks <-chan rmseTask) {
	for t := range tasks {
		*t.out = sumSqErr(t.f, t.entries)
		t.wg.Done()
	}
}

// Loss computes the full regularised objective
// Σ(r−p·q)² + λ1‖P‖² + λ2‖Q‖², which SGD minimises. Used by tests to
// assert monotone-ish descent.
func Loss(f *Factors, entries []sparse.Rating, h HyperParams) float64 {
	var sum float64
	for _, e := range entries {
		d := float64(e.V - f.Predict(e.U, e.I))
		sum += d * d
	}
	var pn, qn float64
	for _, v := range f.P {
		pn += float64(v) * float64(v)
	}
	for _, v := range f.Q {
		qn += float64(v) * float64(v)
	}
	return sum + float64(h.Lambda1)*pn + float64(h.Lambda2)*qn
}
