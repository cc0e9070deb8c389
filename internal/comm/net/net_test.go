package commnet

import (
	"context"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hccmf/internal/comm"
	"hccmf/internal/fp16"
)

// newPair starts a loopback server and a dialer against it. Dims are small:
// P holds M·K = 12 params, Q holds N·K = 8.
func newPair(t *testing.T, scfg ServerConfig) (*Server, *Dialer) {
	t.Helper()
	s, err := Listen("127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	d := &Dialer{Addr: s.Addr(), M: 6, N: 4, K: 2, OpTimeout: 5 * time.Second}
	t.Cleanup(func() { _ = d.Close() })
	return s, d
}

func seq(n int, scale float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = scale * float32(i+1)
	}
	return v
}

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: param %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

func TestPullPushRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  comm.Encoding
	}{{"fp32", comm.FP32}, {"fp16", comm.FP16}} {
		t.Run(tc.name, func(t *testing.T) {
			s, d := newPair(t, ServerConfig{})
			global := seq(8, 0.1)
			// The cluster's publish is always full precision.
			st, err := d.SyncShard(global, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
			if err != nil {
				t.Fatal(err)
			}
			if st.Handshakes != 1 || st.Frames < 4 || st.WireBytes == 0 {
				t.Fatalf("first op stats %+v, want the handshake accounted", st)
			}

			// Pull must hand back roundtrip_enc(store) — the in-process
			// transports' numeric contract.
			dst := make([]float32, 8)
			st, err = d.Pull(dst, nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: tc.enc})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]float32(nil), global...)
			if tc.enc == comm.FP16 {
				fp16.RoundTripSlice(want, want)
			}
			bitsEqual(t, "pull", dst, want)
			if st.Handshakes != 0 {
				t.Fatalf("second op re-handshook: %+v", st)
			}
			if st.BusBytes != int64(8*tc.enc.BytesPerParam()) {
				t.Fatalf("BusBytes = %d, want logical %d", st.BusBytes, 8*tc.enc.BytesPerParam())
			}
			if st.Copies != 3 {
				t.Fatalf("Copies = %d, want 3", st.Copies)
			}

			// Push: the server's store and the local dst must both equal the
			// decode of the wire bytes.
			src := seq(12, 0.3)
			dst = make([]float32, 12)
			if _, err := d.Push(dst, src, comm.Xfer{Shard: comm.WorkerShard(comm.MatrixP, 1, 0, 12), Enc: tc.enc}); err != nil {
				t.Fatal(err)
			}
			want = append(want[:0:0], src...)
			if tc.enc == comm.FP16 {
				fp16.RoundTripSlice(want, want)
			}
			bitsEqual(t, "push dst", dst, want)
			stored, ok := s.Shard(uint8(comm.MatrixP), 1)
			if !ok {
				t.Fatal("push did not land in the store")
			}
			bitsEqual(t, "push store", stored[:12], want)
		})
	}
}

// fp16 declined by the server must not change a single bit of what the
// strategy sees: the round trip moves from the wire to the endpoints.
func TestFP16NegotiationBitIdentical(t *testing.T) {
	_, dYes := newPair(t, ServerConfig{})
	_, dNo := newPair(t, ServerConfig{NoFP16: true})

	global := seq(8, 0.07)
	x := comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}
	for _, d := range []*Dialer{dYes, dNo} {
		if _, err := d.SyncShard(global, x); err != nil {
			t.Fatal(err)
		}
	}

	pull := comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP16}
	a, b := make([]float32, 8), make([]float32, 8)
	stYes, err := dYes.Pull(a, nil, pull)
	if err != nil {
		t.Fatal(err)
	}
	stNo, err := dNo.Pull(b, nil, pull)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "negotiated vs declined pull", b, a)
	if stYes.WireBytes >= stNo.WireBytes {
		t.Fatalf("fp16 wire (%d bytes) not smaller than declined fp32 wire (%d bytes)",
			stYes.WireBytes, stNo.WireBytes)
	}
	if stYes.BusBytes != stNo.BusBytes {
		t.Fatalf("logical BusBytes differ across negotiation: %d vs %d", stYes.BusBytes, stNo.BusBytes)
	}

	src := seq(12, 0.11)
	push := comm.Xfer{Shard: comm.WorkerShard(comm.MatrixP, 0, 0, 12), Enc: comm.FP16}
	pa, pb := make([]float32, 12), make([]float32, 12)
	if _, err := dYes.Push(pa, src, push); err != nil {
		t.Fatal(err)
	}
	if _, err := dNo.Push(pb, src, push); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "negotiated vs declined push", pb, pa)
}

// One worker's stream of operations reuses one connection.
func TestConnectionReuse(t *testing.T) {
	s, d := newPair(t, ServerConfig{})
	var total comm.TransferStats
	global := seq(8, 0.2)
	for i := 0; i < 10; i++ {
		st, err := d.SyncShard(global, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
		if err != nil {
			t.Fatal(err)
		}
		total.Add(st)
	}
	if total.Handshakes != 1 {
		t.Fatalf("10 ops cost %d handshakes, want 1", total.Handshakes)
	}
	if got := s.Stats().Conns; got != 1 {
		t.Fatalf("server saw %d connections, want 1", got)
	}
}

// An application-level error frame must not poison the connection: the
// stream stays framed and the next operation reuses it.
func TestErrorFrameKeepsConnection(t *testing.T) {
	s, d := newPair(t, ServerConfig{})
	dst := make([]float32, 8)
	_, err := d.Pull(dst, nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
	if err == nil || !strings.Contains(err.Error(), "not published") {
		t.Fatalf("pull of unpublished shard: %v", err)
	}
	st, err := d.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
	if err != nil {
		t.Fatalf("connection did not survive an error frame: %v", err)
	}
	if st.Handshakes != 0 || s.Stats().Conns != 1 {
		t.Fatalf("error frame forced a redial: %+v, conns=%d", st, s.Stats().Conns)
	}
	if got := s.Stats().Errors; got != 1 {
		t.Fatalf("server accounted %d error frames, want 1", got)
	}
}

// The server fixes its dimensions on first contact; a mismatched worker is
// turned away at handshake.
func TestDimsMismatchRejected(t *testing.T) {
	s, d := newPair(t, ServerConfig{})
	if _, err := d.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatal(err)
	}
	bad := &Dialer{Addr: s.Addr(), M: 7, N: 4, K: 2, OpTimeout: 5 * time.Second}
	defer func() { _ = bad.Close() }()
	_, err := bad.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
	if err == nil || !strings.Contains(err.Error(), "rejected handshake") {
		t.Fatalf("mismatched dims accepted: %v", err)
	}
}

// A hello whose matrices exceed the wire's uint32 shard range is refused
// before the server fixes its dims, and the follow-up push that used to
// size a 2⁵¹-param store (makeslice panic) cannot crash the process: a
// legitimate worker still trains against the same server afterwards.
func TestHostileHelloRejected(t *testing.T) {
	s, d := newPair(t, ServerConfig{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := writeFrame(conn, nil, &Frame{Op: OpHello, Payload: helloPayload(1<<31, 4, 1<<20, false)}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := readFrame(conn, maxHandshakePayload)
	if err != nil || reply.Op != OpError || !strings.Contains(string(reply.Payload), "uint32") {
		t.Fatalf("hostile hello answered op=%v payload=%q err=%v, want a range error frame", reply.Op, reply.Payload, err)
	}
	// The push may hit a closed socket; either way it must not reach the store.
	_, _, _ = writeFrame(conn, nil, &Frame{Op: OpPush, Shard: comm.WorkerShard(comm.MatrixP, 0, 0, 1), Enc: comm.FP32, Payload: make([]byte, 4)})
	s.mu.Lock()
	m, n, k := s.m, s.n, s.k
	s.mu.Unlock()
	if m != 0 || n != 0 || k != 0 {
		t.Fatalf("hostile hello fixed the server dims at %dx%dx%d", m, n, k)
	}

	want := seq(8, 0.5)
	if _, err := d.SyncShard(want, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatalf("legitimate push after a hostile hello: %v", err)
	}
	got := make([]float32, 8)
	if _, err := d.Pull(got, nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatalf("legitimate pull after a hostile hello: %v", err)
	}
	bitsEqual(t, "pull after hostile hello", got, want)
}

// A stalled server must not hang a transfer: the per-op deadline fires.
func TestOpDeadlineAgainstStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, answer nothing.
			go func(c net.Conn) { _, _ = io.Copy(io.Discard, c); _ = c.Close() }(c)
		}
	}()
	d := &Dialer{Addr: ln.Addr().String(), M: 6, N: 4, K: 2, OpTimeout: 200 * time.Millisecond}
	defer func() { _ = d.Close() }()
	start := time.Now()
	_, err = d.Pull(make([]float32, 8), nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
	if err == nil {
		t.Fatal("pull against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// A context deadline sooner than OpTimeout wins.
func TestContextDeadlineOverridesOpTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { _, _ = io.Copy(io.Discard, c); _ = c.Close() }(c)
		}
	}()
	d := &Dialer{Addr: ln.Addr().String(), M: 6, N: 4, K: 2, OpTimeout: time.Hour}
	defer func() { _ = d.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = d.Pull(make([]float32, 8), nil,
		comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32, Ctx: ctx})
	if err == nil {
		t.Fatal("pull under an expired context deadline succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context deadline took %v to cut the transfer", elapsed)
	}
}

// A cancelled context stops the transfer before it touches the wire.
func TestCancelledContextShortCircuits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The address is never dialled: nothing listens here and no error about
	// refused connections may surface.
	d := &Dialer{Addr: "127.0.0.1:1", M: 6, N: 4, K: 2}
	_, err := d.Pull(make([]float32, 8), nil,
		comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32, Ctx: ctx})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled context: %v", err)
	}
}

func TestClosedTransportRefusesTransfers(t *testing.T) {
	_, d := newPair(t, ServerConfig{})
	if _, err := d.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatal(err)
	}
	if err := comm.CloseTransport(d); err != nil {
		t.Fatal(err)
	}
	_, err := d.Pull(make([]float32, 8), nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("closed transport served a transfer: %v", err)
	}
}

// Concurrent workers each ride their own pooled connection; the store ends
// consistent. Run with -race.
func TestConcurrentTransfers(t *testing.T) {
	s, err := Listen("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	d := &Dialer{Addr: s.Addr(), M: 32, N: 16, K: 4, OpTimeout: 10 * time.Second}
	t.Cleanup(func() { _ = d.Close() })

	if _, err := d.SyncShard(seq(64, 0.01), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 64), Enc: comm.FP32}); err != nil {
		t.Fatal(err)
	}
	const workers, ops = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := seq(128, float32(w+1))
			dst := make([]float32, 128)
			pulled := make([]float32, 64)
			for i := 0; i < ops; i++ {
				if _, err := d.Push(dst, src, comm.Xfer{Shard: comm.WorkerShard(comm.MatrixP, w, 0, 128), Enc: comm.FP32}); err != nil {
					errs[w] = err
					return
				}
				if _, err := d.Pull(pulled, nil, comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 64), Enc: comm.FP32}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 0; w < workers; w++ {
		stored, ok := s.Shard(uint8(comm.MatrixP), w)
		if !ok {
			t.Fatalf("worker %d shard missing", w)
		}
		bitsEqual(t, "concurrent store", stored, seq(128, float32(w+1)))
	}
}

// The registry must build a working TCP transport, and the capability
// helpers must see it through the canonical decorator stack.
func TestRegistryBuildsTCPTransport(t *testing.T) {
	s, _ := newPair(t, ServerConfig{})
	tr, err := comm.New(comm.Spec{Kind: Kind, Addr: s.Addr(), M: 6, N: 4, K: 2, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stack := comm.NewRetrying(tr, comm.RetryPolicy{Attempts: 2})
	rem, ok := comm.AsRemote(stack)
	if !ok {
		t.Fatal("registry transport lost the Remote capability under decoration")
	}
	if rem.RemoteAddr() != s.Addr() {
		t.Fatalf("RemoteAddr = %q, want %q", rem.RemoteAddr(), s.Addr())
	}
	if _, err := rem.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatal(err)
	}
	if err := comm.CloseTransport(stack); err != nil {
		t.Fatal(err)
	}

	if _, err := comm.New(comm.Spec{Kind: Kind, M: 6, N: 4, K: 2}); err == nil {
		t.Fatal("tcp transport built without an address")
	}
	if _, err := comm.New(comm.Spec{Kind: Kind, Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("tcp transport built without dims")
	}
}

// Close drains: it returns promptly with idle connections parked, and the
// listener stops accepting.
func TestServerGracefulClose(t *testing.T) {
	s, d := newPair(t, ServerConfig{})
	if _, err := d.SyncShard(seq(8, 1), comm.Xfer{Shard: comm.GlobalShard(comm.MatrixQ, 0, 8), Enc: comm.FP32}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle pooled connection")
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

// Close must not wait out IdleTimeout when connections are still being
// accepted as it runs: a handler that arms its read deadline after Close
// expired every deadline would otherwise park in its read until the idle
// timeout fires. Each round floods the server with silent connections
// and closes it at once.
func TestCloseDuringConnectionFlood(t *testing.T) {
	const (
		rounds = 40
		conns  = 32
		idle   = 2 * time.Second
	)
	for r := 0; r < rounds; r++ {
		s, err := Listen("127.0.0.1:0", ServerConfig{IdleTimeout: idle})
		if err != nil {
			t.Fatal(err)
		}
		var dialed []net.Conn
		for i := 0; i < conns; i++ {
			c, err := net.DialTimeout("tcp", s.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			dialed = append(dialed, c)
		}
		start := time.Now()
		done := make(chan error, 1)
		go func() { done <- s.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(idle / 4):
			t.Fatalf("round %d: Close still blocked after %v (IdleTimeout %v)", r, time.Since(start), idle)
		}
		for _, c := range dialed {
			_ = c.Close()
		}
	}
}
