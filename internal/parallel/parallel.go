// Package parallel provides the chunked worker fan-out used by HCC-MF's
// CPU-side data plane: the dataset ingestion pipeline splits an index
// range across a bounded number of goroutines. Centralising the helper keeps the clamping policy in one
// place — spawning more goroutines than there are minChunk-sized pieces
// of work only buys scheduler overhead.
package parallel

import "sync"

// Chunks splits [0, n) into contiguous half-open ranges and calls fn on
// each of them, using at most workers goroutines. The worker count is
// clamped to ceil(n/minChunk), so a tiny input never fans out further
// than its useful parallelism; with an effective worker count of one
// (workers <= 1, n < minChunk, or n == 0) fn runs inline as fn(0, n) on
// the caller's goroutine. fn must be safe to call concurrently on
// disjoint ranges. Chunks returns only after every range completes.
func Chunks(n, minChunk, workers int, fn func(lo, hi int)) {
	if minChunk < 1 {
		minChunk = 1
	}
	if useful := (n + minChunk - 1) / minChunk; workers > useful {
		workers = useful
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
