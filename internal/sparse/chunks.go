package sparse

import (
	"runtime"

	"hccmf/internal/parallel"
)

// The data plane's fan-out. The passes that move every rating before the
// first SGD update — SplitTrainTest, RowShards and BlockOrder — cut the
// entries into chunks and run one goroutine per chunk, up to GOMAXPROCS.
// Each pass is an order-preserving copy or a stable counting sort, whose
// output does not depend on where the chunks are cut, so the bits are the
// same at any GOMAXPROCS.

// minChunk is the fewest entries a chunk holds (768 KiB of ratings):
// below it, starting a goroutine costs more than the share of the pass it
// takes over.
const minChunk = 1 << 16

// histPerEntry bounds a pass's scratch: its chunks' histograms together
// hold at most one counter per histPerEntry entries (an eighth of an int
// per entry, a twelfth of the ratings' own bytes), so the scratch grows
// with the data, not with GOMAXPROCS times the key range.
const histPerEntry = 8

// chunkCount is the number of chunks a pass over n entries is cut into
// when each chunk keeps a histogram of keys counters: one per GOMAXPROCS,
// but no more than n/minChunk or n/(histPerEntry·keys), and at least one.
func chunkCount(n, keys int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minChunk, n/(histPerEntry*max(1, keys))))
}

// eachChunk calls fn(c, lo, hi) concurrently for each chunk c of [0, n)
// cut into nch near-equal ranges [lo, hi), and returns when all are done.
// With nch == 1 it runs fn inline.
func eachChunk(n, nch int, fn func(c, lo, hi int)) {
	parallel.Chunks(nch, 1, nch, func(first, last int) {
		for c := first; c < last; c++ {
			lo, hi := evenRange(n, nch, c)
			fn(c, lo, hi)
		}
	})
}

// chunkCursors turns chunk-major counts — cnt[c·nk+k] entries of key k in
// chunk c — into chunk-major write positions: chunk c writes its first
// entry of key k at cnt[c·nk+k], after every earlier chunk's entries of
// that key, from key k's start start(k). That is the stable order a
// serial counting sort writes.
func chunkCursors(cnt []int, nk int, start func(k int) int) {
	nch := len(cnt) / nk
	for k := 0; k < nk; k++ {
		pos := start(k)
		for c := 0; c < nch; c++ {
			n := cnt[c*nk+k]
			cnt[c*nk+k] = pos
			pos += n
		}
	}
}
