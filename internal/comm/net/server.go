package commnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ServerConfig tunes a listener.
type ServerConfig struct {
	// NoFP16 declines the fp16 capability at handshake; clients fall back
	// to fp32 framing (and apply the fp16 round trip locally, so the
	// strategy's numeric contract is unchanged).
	NoFP16 bool
	// IdleTimeout bounds how long a connection may sit between frames;
	// zero means DefaultIdleTimeout. It protects the drain path: a client
	// that went away without closing cannot hold a handler forever.
	IdleTimeout time.Duration
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultIdleTimeout is the per-connection inter-frame read deadline.
const DefaultIdleTimeout = 5 * time.Minute

// ServerStats is a snapshot of a server's lifetime counters.
type ServerStats struct {
	Conns  int64
	Frames int64
	Pulls  int64
	Pushes int64
	Syncs  int64
	Errors int64
}

// storeKey addresses one shard buffer: a matrix and its owner (a worker's
// push buffer, or the global copy at owner −1).
type storeKey struct {
	matrix uint8
	owner  int
}

// Server owns the parameter shards and answers hccmf-wire/v1 requests. It
// is passive by design: the training cluster (fold, sync, eviction) runs
// in the worker process, publishes the authoritative global factors after
// every sync barrier, and the server's job is to hold the bytes and serve
// them — which is exactly what keeps a two-process run bit-identical to an
// in-process one.
type Server struct {
	ln  net.Listener
	cfg ServerConfig

	mu sync.Mutex
	// m, n, k are fixed by the first handshake; later hellos must agree.
	m, n, k int
	store   map[storeKey][]float32
	conns   map[net.Conn]struct{}
	closed  bool
	stats   ServerStats

	wg sync.WaitGroup
}

// Listen starts a server on addr ("127.0.0.1:0" picks a free port).
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("commnet: listen %s: %w", addr, err)
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	s := &Server{
		ln:    ln,
		cfg:   cfg,
		store: make(map[storeKey][]float32),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	// lint:allow goroutinepolicy accept loop is joined by Close via s.wg.Wait; it exits when the listener is closed.
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound address (with the real port after :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the lifetime counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close drains and shuts down: the listener stops accepting, handlers
// finish the frame they are serving (blocked idle reads are unblocked by
// an immediate read deadline), and Close returns once every handler has
// exited. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	// Unblock handlers parked between frames; in-flight responses still
	// complete (only the read side is expired).
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed (drain) or fatal; either way stop accepting.
			if !errors.Is(err, net.ErrClosed) {
				s.logf("commnet: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.stats.Conns++
		s.wg.Add(1)
		s.mu.Unlock()
		// lint:allow goroutinepolicy per-connection handlers are joined by Close via s.wg.Wait; drain expires their read deadlines.
		go s.handle(conn)
	}
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// armIdle gives conn's next read IdleTimeout, or reports false once Close
// has begun. The check and the arm share s.mu with Close's deadline
// expiry, so a handler can never re-arm a read Close already expired.
func (s *Server) armIdle(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	return true
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

// handle serves one connection: handshake, then request frames until the
// peer closes, errors, or the server drains.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	if !s.armIdle(conn) {
		return
	}
	hello, _, err := readFrame(conn, maxHandshakePayload)
	if err != nil || hello.Op != OpHello {
		s.logf("commnet: %s: bad handshake: op=%v err=%v", conn.RemoteAddr(), hello.Op, err)
		s.replyError(conn, fmt.Sprintf("want hello frame (%s)", WireSchema))
		return
	}
	m, n, k, wantFP16, err := parseHello(hello.Payload)
	if err == nil {
		err = s.adoptDims(m, n, k)
	}
	if err != nil {
		s.logf("commnet: %s: handshake rejected: %v", conn.RemoteAddr(), err)
		s.replyError(conn, err.Error())
		return
	}
	fp16OK := wantFP16 && !s.cfg.NoFP16
	var caps byte
	if fp16OK {
		caps = helloCapFP16
	}
	// Per-connection buffers: recv holds the request being served, out
	// the reply, its payload encoded in place. Both are reused, so the
	// steady-state request loop does not allocate.
	var recv, out []byte
	out, _, err = writeFrame(conn, out, &Frame{Op: OpHelloOK, Payload: []byte{caps}})
	if err != nil {
		s.logf("commnet: %s: %v", conn.RemoteAddr(), err)
		return
	}
	s.countFrames(2)

	// Any payload is bounded by the largest matrix in fp32.
	maxPayload := 4 * maxInt(m, n) * k
	for {
		if !s.armIdle(conn) {
			return
		}
		var req Frame
		req, recv, _, err = readFrameInto(conn, recv, maxPayload)
		if err != nil {
			// EOF and expired drain deadlines are normal ends; protocol
			// violations are worth a diagnostic but either way the
			// stream's framing can no longer be trusted.
			if !s.draining() {
				s.logf("commnet: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.countFrames(1)
		var failed bool
		out, failed = s.serve(out, &req)
		if failed {
			s.countError()
		}
		if _, err := sendFrame(conn, out); err != nil {
			s.logf("commnet: %s: %v", conn.RemoteAddr(), err)
			return
		}
		s.countFrames(1)
	}
}

// serve answers one request frame into out (the connection's reused reply
// buffer), reporting whether the reply is an error frame.
func (s *Server) serve(out []byte, req *Frame) ([]byte, bool) {
	var msg string
	switch req.Op {
	case OpPull:
		out, msg = s.servePull(out, req)
	case OpPush:
		out, msg = s.servePush(out, req)
	default:
		msg = fmt.Sprintf("unexpected %v frame", req.Op)
	}
	if msg != "" {
		out = encodeFrame(out, &Frame{Op: OpError, Payload: []byte(msg)})
		return out, true
	}
	return out, false
}

// adoptDims fixes the server's dimensions on first contact and verifies
// every later client agrees — a mismatched worker would corrupt shards.
func (s *Server) adoptDims(m, n, k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == 0 {
		s.m, s.n, s.k = m, n, k
		return nil
	}
	if s.m != m || s.n != n || s.k != k {
		return fmt.Errorf("commnet: dims %dx%dx%d, server fixed at %dx%dx%d", m, n, k, s.m, s.n, s.k)
	}
	return nil
}

// matrixSize reports the flat float32 length of a matrix under the fixed
// dims (callers hold s.mu).
func (s *Server) matrixSize(m uint8) int {
	if m == 1 { // MatrixP
		return s.m * s.k
	}
	return s.n * s.k
}

// servePull answers a pull request from the store, encoding the data
// frame into out. A refusal returns the error message instead.
func (s *Server) servePull(out []byte, req *Frame) ([]byte, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Pulls++
	key := storeKey{matrix: uint8(req.Shard.Matrix), owner: req.Shard.Owner}
	buf, ok := s.store[key]
	if !ok {
		return out, fmt.Sprintf("shard %v not published", req.Shard)
	}
	if req.Shard.Hi > len(buf) {
		return out, fmt.Sprintf("shard %v outside matrix of %d params", req.Shard, len(buf))
	}
	out, payload := putFrame(out, &Frame{Op: OpData, Shard: req.Shard, Enc: req.Enc},
		req.Shard.Params()*req.Enc.BytesPerParam())
	putPayload(payload, buf[req.Shard.Lo:req.Shard.Hi], req.Enc)
	return out, ""
}

// servePush lands a push (owner ≥ 0) or a sync publish (owner −1) in the
// store and writes the ack into out; a refusal returns the error message
// instead. The write happens only after the complete payload validated,
// so a retried push after a truncated or reset attempt is idempotent —
// the store never holds a half-applied transfer.
func (s *Server) servePush(out []byte, req *Frame) ([]byte, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Shard.Owner < 0 {
		s.stats.Syncs++
	} else {
		s.stats.Pushes++
	}
	size := s.matrixSize(uint8(req.Shard.Matrix))
	if req.Shard.Hi > size {
		return out, fmt.Sprintf("shard %v outside matrix of %d params", req.Shard, size)
	}
	if _, err := payloadParams(req.Shard, req.Enc, len(req.Payload)); err != nil {
		return out, err.Error()
	}
	key := storeKey{matrix: uint8(req.Shard.Matrix), owner: req.Shard.Owner}
	buf, ok := s.store[key]
	if !ok {
		buf = make([]float32, size)
		s.store[key] = buf
	}
	decodePayload(buf[req.Shard.Lo:req.Shard.Hi], req.Payload, req.Enc)
	out, _ = putFrame(out, &Frame{Op: OpAck, Shard: req.Shard, Enc: req.Enc}, 0)
	return out, ""
}

// Shard returns a copy of a stored shard buffer (tests and diagnostics).
func (s *Server) Shard(matrix uint8, owner int) ([]float32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.store[storeKey{matrix: matrix, owner: owner}]
	if !ok {
		return nil, false
	}
	out := make([]float32, len(buf))
	copy(out, buf)
	return out, true
}

func (s *Server) countFrames(n int64) {
	s.mu.Lock()
	s.stats.Frames += n
	s.mu.Unlock()
}

func (s *Server) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// replyError best-effort sends an error frame during handshake failure.
func (s *Server) replyError(conn net.Conn, msg string) {
	_, _, _ = writeFrame(conn, nil, &Frame{Op: OpError, Payload: []byte(msg)})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
