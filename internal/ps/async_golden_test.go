package ps

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hccmf/internal/comm"
	"hccmf/internal/mf"
)

// asyncGoldenHash is the FNV-64a hash of the model TestAsyncStreamGolden
// trains, and holds for the SSE and the portable (-tags noasm) kernel
// alike, since both are bit-identical to the reference update. The
// problem holds repeated (row, col) cells, so the hash also pins the order
// sparse.BlockOrder gives them: their input order, BlockOrder being a
// stable sort.
const asyncGoldenHash = 0x76caa21d90395611

// TestAsyncStreamGolden pins the bits the async stream compute produces:
// one worker, one slice (so no concurrent P writer), FP32, Q-only, a fixed
// seed and 2 epochs. RunEpoch trains one slice with the worker's engine,
// so the test drives the epoch pipeline with the streams' compute,
// trainChunk (mf.TrainEntries over the tile-major chunk), directly.
func TestAsyncStreamGolden(t *testing.T) {
	const m, n, epochs = 120, 80, 2
	full, confs := buildProblem(t, m, n, 6000, []float64{1}, 11)
	cfg := defaultConfig(m, n)
	cfg.K = 32
	cfg.Strategy = comm.Strategy{QOnly: true, Encoding: comm.FP32, Streams: 1}
	cfg.MeanRating = full.MeanRating()
	c, err := New(cfg, confs)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if err := c.epochWith(e, epochs, c.trainChunk); err != nil {
			t.Fatal(err)
		}
	}
	if got := factorsHash(c.Snapshot()); got != asyncGoldenHash {
		t.Fatalf("async stream model hash %#x, want %#x", got, uint64(asyncGoldenHash))
	}
}

// factorsHash is the FNV-64a hash of f's P then Q float bits.
func factorsHash(f *mf.Factors) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range [][]float32{f.P, f.Q} {
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
