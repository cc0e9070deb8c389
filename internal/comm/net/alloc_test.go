package commnet

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"hccmf/internal/comm"
)

// newWidePair starts a loopback server and a dialer at the given dims and
// publishes a full-precision global Q to it.
func newWidePair(tb testing.TB, m, n, k int, q []float32) (*Server, *Dialer) {
	tb.Helper()
	s, err := Listen("127.0.0.1:0", ServerConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	d := &Dialer{Addr: s.Addr(), M: m, N: n, K: k, OpTimeout: 10 * time.Second}
	tb.Cleanup(func() { _ = d.Close() })
	if _, err := d.SyncShard(q, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, len(q)), Enc: comm.FP32}); err != nil {
		tb.Fatal(err)
	}
	return s, d
}

// TestSteadyStateTransfersDoNotAllocate pins the wire path's allocation
// contract: once a connection is pooled and its buffers are sized, a
// Pull, Push or SyncShard allocates nothing. The loopback server runs in
// this process and AllocsPerRun counts every goroutine's allocations, so
// the server's handling of each request is held to zero as well.
func TestSteadyStateTransfersDoNotAllocate(t *testing.T) {
	const m, n, k = 40, 64, 8
	_, d := newWidePair(t, m, n, k, seq(n*k, 0.01))
	src := seq(n*k, 0.02)
	dst := make([]float32, n*k)
	for _, enc := range []comm.Encoding{comm.FP32, comm.FP16} {
		pull := comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, n*k), Enc: enc}
		push := comm.Xfer{Shard: comm.WorkerShard(comm.MatrixQ, 0, 0, n*k), Enc: enc}
		ops := map[string]func() error{
			"Pull": func() error { _, err := d.Pull(dst, nil, pull); return err },
			"Push": func() error { _, err := d.Push(dst, src, push); return err },
			"SyncShard": func() error {
				_, err := d.SyncShard(src, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, n*k), Enc: enc})
				return err
			},
		}
		for name, op := range ops {
			if err := op(); err != nil { // size the buffers
				t.Fatalf("%v %s: %v", enc, name, err)
			}
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				if e := op(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%v %s: %v", enc, name, err)
			}
			if allocs != 0 {
				t.Errorf("%v %s: %v allocations per op, want 0", enc, name, allocs)
			}
		}
	}
}

// TestServerRequestLoopDoesNotAllocate drives the server over a raw
// connection whose side of the exchange (one Write, one ReadFull into
// fixed buffers) cannot allocate, so any allocation counted is the
// server's own pull or push handling.
func TestServerRequestLoopDoesNotAllocate(t *testing.T) {
	const m, n, k = 40, 64, 8
	s, _ := newWidePair(t, m, n, k, seq(n*k, 0.01))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply := make([]byte, headerSize+4*n*k)
	exchange := func(frame []byte, replyLen int) error {
		if _, err := c.Write(frame); err != nil {
			return err
		}
		_, err := io.ReadFull(c, reply[:replyLen])
		return err
	}
	hello := encodeFrame(nil, &Frame{Op: OpHello, Payload: helloPayload(m, n, k, true)})
	if err := exchange(hello, headerSize+1); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []comm.Encoding{comm.FP32, comm.FP16} {
		plen := n * k * enc.BytesPerParam()
		pull := encodeFrame(nil, &Frame{Op: OpPull, Shard: comm.GlobalShard(comm.MatrixQ, 0, n*k), Enc: enc})
		push, payload := putFrame(nil, &Frame{Op: OpPush, Shard: comm.WorkerShard(comm.MatrixQ, 1, 0, n*k), Enc: enc}, plen)
		putPayload(payload, seq(n*k, 0.03), enc)
		for name, req := range map[string]struct {
			frame    []byte
			replyLen int
			reply    Op
		}{
			"pull": {pull, headerSize + plen, OpData},
			"push": {push, headerSize, OpAck},
		} {
			if err := exchange(req.frame, req.replyLen); err != nil { // size the buffers
				t.Fatalf("%v %s: %v", enc, name, err)
			}
			if Op(reply[5]) != req.reply {
				t.Fatalf("%v %s answered with %v, want %v", enc, name, Op(reply[5]), req.reply)
			}
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				if e := exchange(req.frame, req.replyLen); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%v %s: %v", enc, name, err)
			}
			if allocs != 0 {
				t.Errorf("server %v %s: %v allocations per request, want 0", enc, name, allocs)
			}
		}
	}
}

// benchWideQ is a Q at the async workload's shape (26,252 items, k = 64)
// with N(0, 0.1) entries.
func benchWideQ() (n, k int, q []float32) {
	n, k = 26252, 64
	rng := rand.New(rand.NewSource(1))
	q = make([]float32, n*k)
	for i := range q {
		q[i] = float32(rng.NormFloat64() * 0.1)
	}
	return n, k, q
}

// BenchmarkPullFP16 pulls the whole wide Q over loopback as binary16: the
// server's encode, the socket, and the client's decode.
func BenchmarkPullFP16(b *testing.B) {
	n, k, q := benchWideQ()
	_, d := newWidePair(b, 27698, n, k, q)
	dst := make([]float32, len(q))
	x := comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, len(q)), Enc: comm.FP16}
	b.SetBytes(int64(2 * len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Pull(dst, nil, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushFP16 pushes the whole wide Q over loopback as binary16: the
// client's encode and local decode, the socket, and the server's decode.
func BenchmarkPushFP16(b *testing.B) {
	n, k, q := benchWideQ()
	_, d := newWidePair(b, 27698, n, k, q)
	dst := make([]float32, len(q))
	x := comm.Xfer{Shard: comm.WorkerShard(comm.MatrixQ, 0, 0, len(q)), Enc: comm.FP16}
	b.SetBytes(int64(2 * len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Push(dst, q, x); err != nil {
			b.Fatal(err)
		}
	}
}
