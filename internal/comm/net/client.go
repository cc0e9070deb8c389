package commnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"hccmf/internal/comm"
	"hccmf/internal/fp16"
)

// Kind is the registry name of the TCP transport; importing this package
// (for side effects) makes `-transport tcp` resolvable through comm.New.
const Kind = "tcp"

func init() {
	comm.Register(Kind, func(spec comm.Spec) (comm.Transport, error) {
		if spec.Addr == "" {
			return nil, fmt.Errorf("commnet: the %q transport needs a server address", Kind)
		}
		if spec.M <= 0 || spec.N <= 0 || spec.K <= 0 {
			return nil, fmt.Errorf("commnet: the %q transport needs factor dims, got m=%d n=%d k=%d",
				Kind, spec.M, spec.N, spec.K)
		}
		return &Dialer{Addr: spec.Addr, M: spec.M, N: spec.N, K: spec.K, OpTimeout: spec.OpTimeout}, nil
	})
}

// DefaultOpTimeout bounds one wire operation (dial, handshake, pull, push)
// when neither the Dialer nor the transfer's context says otherwise.
const DefaultOpTimeout = 10 * time.Second

// Dialer is the client side of hccmf-wire/v1: a comm.Transport whose
// server-side buffers live in an hccmf-ps process. Connections are pooled
// and reused across transfers; concurrent workers each hold their own
// connection while an operation is in flight. Every operation runs under a
// deadline — the transfer context's, when it is sooner than OpTimeout —
// and a connection that sees a transport-level error is discarded so the
// next attempt (typically a comm.Retrying redial) starts clean.
type Dialer struct {
	// Addr is the hccmf-ps endpoint.
	Addr string
	// M, N, K are the factor dims declared at handshake.
	M, N, K int
	// OpTimeout bounds each operation; zero means DefaultOpTimeout.
	OpTimeout time.Duration
	// NoFP16 stops the client from offering fp16 payload compression.
	NoFP16 bool

	mu     sync.Mutex
	idle   []*wireConn
	closed bool
}

// wireConn is one pooled connection with its negotiated capabilities and
// reusable buffers.
type wireConn struct {
	c      net.Conn
	br     *bufio.Reader
	fp16OK bool
	// frame holds the outgoing frame, its payload encoded in place; recv
	// holds the last frame read. Both are reused, so steady-state
	// transfers do not allocate (TestSteadyStateTransfersDoNotAllocate).
	frame []byte
	recv  []byte
}

// Name implements comm.Transport.
func (d *Dialer) Name() string { return "TCP" }

// CopiesPerTransfer implements comm.Transport: marshal into the frame,
// the kernel socket crossing, and unmarshal on the far side — the same
// three passes as the in-process COMM-P baseline it distributes.
func (d *Dialer) CopiesPerTransfer() int { return 3 }

// RemoteAddr implements comm.Remote.
func (d *Dialer) RemoteAddr() string { return d.Addr }

// Close implements io.Closer: drops every pooled connection and refuses
// further transfers. Reach it through comm.CloseTransport, which sees
// through decorators.
func (d *Dialer) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	var first error
	for _, wc := range d.idle {
		if err := wc.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.idle = nil
	return first
}

func (d *Dialer) timeout() time.Duration {
	if d.OpTimeout > 0 {
		return d.OpTimeout
	}
	return DefaultOpTimeout
}

// opDeadline resolves the operation deadline: OpTimeout from now, or the
// transfer context's deadline when that is sooner.
func (d *Dialer) opDeadline(x comm.Xfer) time.Time {
	t := time.Now().Add(d.timeout())
	if x.Ctx != nil {
		if dl, ok := x.Ctx.Deadline(); ok && dl.Before(t) {
			t = dl
		}
	}
	return t
}

// maxPayload bounds any frame this client will accept: the largest matrix
// in fp32.
func (d *Dialer) maxPayload() int {
	return 4 * maxInt(d.M, d.N) * d.K
}

// conn returns a pooled connection or dials (and handshakes) a fresh one,
// accounting the handshake in st.
func (d *Dialer) conn(deadline time.Time, st *comm.TransferStats) (*wireConn, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("commnet: transport closed")
	}
	if n := len(d.idle); n > 0 {
		wc := d.idle[n-1]
		d.idle = d.idle[:n-1]
		d.mu.Unlock()
		return wc, nil
	}
	d.mu.Unlock()

	c, err := net.DialTimeout("tcp", d.Addr, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("commnet: dial %s: %w", d.Addr, err)
	}
	st.Handshakes++
	wc := &wireConn{c: c, br: bufio.NewReader(c)}
	if err := d.handshake(wc, deadline, st); err != nil {
		_ = c.Close()
		return nil, err
	}
	return wc, nil
}

// handshake runs hello/hello-ok and records the negotiated capabilities.
func (d *Dialer) handshake(wc *wireConn, deadline time.Time, st *comm.TransferStats) error {
	_ = wc.c.SetDeadline(deadline)
	hello := Frame{Op: OpHello, Payload: helloPayload(d.M, d.N, d.K, !d.NoFP16)}
	frame, n, err := writeFrame(wc.c, wc.frame, &hello)
	wc.frame = frame
	st.Frames++
	st.WireBytes += int64(n)
	if err != nil {
		return err
	}
	resp, rn, err := readFrame(wc.br, maxHandshakePayload)
	st.Frames++
	st.WireBytes += int64(rn)
	if err != nil {
		return fmt.Errorf("commnet: handshake with %s: %w", d.Addr, err)
	}
	switch resp.Op {
	case OpHelloOK:
		if len(resp.Payload) < 1 {
			return fmt.Errorf("commnet: hello-ok without capability byte")
		}
		wc.fp16OK = resp.Payload[0]&helloCapFP16 != 0
		return nil
	case OpError:
		return fmt.Errorf("commnet: server rejected handshake: %s", resp.Payload)
	default:
		return fmt.Errorf("commnet: handshake answered with %v frame", resp.Op)
	}
}

// putConn returns a healthy connection to the pool.
func (d *Dialer) putConn(wc *wireConn) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = wc.c.Close()
		return
	}
	d.idle = append(d.idle, wc)
	d.mu.Unlock()
}

// Pull implements comm.Transport: the shard named by x is served from the
// remote store (src, the in-process convenience slice, is ignored).
func (d *Dialer) Pull(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	var st comm.TransferStats
	err := d.roundTrip(x, len(dst), &st, func(wc *wireConn, wireEnc comm.Encoding) error {
		wc.frame, _ = putFrame(wc.frame, &Frame{Op: OpPull, Shard: x.Shard, Enc: wireEnc}, 0)
		return nil
	}, func(wireEnc comm.Encoding, resp Frame) error {
		if resp.Op != OpData {
			return fmt.Errorf("commnet: pull answered with %v frame", resp.Op)
		}
		if _, err := payloadParams(x.Shard, wireEnc, len(resp.Payload)); err != nil {
			return err
		}
		decodePayload(dst, resp.Payload, wireEnc)
		if wireEnc != x.Enc {
			// fp16 was declined on the wire; apply the round trip locally
			// so the strategy's numeric contract (dst = roundtrip(global))
			// holds bit-for-bit regardless of negotiation.
			fp16.RoundTripSlice(dst, dst)
		}
		return nil
	})
	return st, err
}

// Push implements comm.Transport: src lands in the remote shard, and dst
// receives the encode/decode round trip of src — the same bytes the wire
// carried, matching the in-process transports exactly.
func (d *Dialer) Push(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	var st comm.TransferStats
	err := d.roundTrip(x, len(src), &st, func(wc *wireConn, wireEnc comm.Encoding) error {
		if len(dst) != len(src) {
			return fmt.Errorf("commnet: length mismatch dst=%d src=%d", len(dst), len(src))
		}
		if wireEnc != x.Enc {
			// fp16 declined: round-trip locally, ship full precision of
			// the rounded values so the store equals dst.
			fp16.RoundTripSlice(dst, src)
			wc.putPush(x.Shard, dst, wireEnc)
			return nil
		}
		// dst = decode(wire bytes): exactly what the server stores.
		decodePayload(dst, wc.putPush(x.Shard, src, wireEnc), wireEnc)
		return nil
	}, func(wireEnc comm.Encoding, resp Frame) error {
		if resp.Op != OpAck {
			return fmt.Errorf("commnet: push answered with %v frame", resp.Op)
		}
		return nil
	})
	return st, err
}

// SyncShard implements comm.Remote: uploads authoritative bytes into the
// store (the cluster's post-sync publish). No local destination — the
// caller's slice already is the authority.
func (d *Dialer) SyncShard(src []float32, x comm.Xfer) (comm.TransferStats, error) {
	var st comm.TransferStats
	err := d.roundTrip(x, len(src), &st, func(wc *wireConn, wireEnc comm.Encoding) error {
		wc.putPush(x.Shard, src, wireEnc)
		return nil
	}, func(wireEnc comm.Encoding, resp Frame) error {
		if resp.Op != OpAck {
			return fmt.Errorf("commnet: sync answered with %v frame", resp.Op)
		}
		return nil
	})
	return st, err
}

// putPush assembles a push frame for sh into wc.frame, encoding src under
// enc straight into the frame's payload slot, and returns that slot.
func (wc *wireConn) putPush(sh comm.Shard, src []float32, enc comm.Encoding) []byte {
	frame, payload := putFrame(wc.frame, &Frame{Op: OpPush, Shard: sh, Enc: enc}, len(src)*enc.BytesPerParam())
	wc.frame = frame
	putPayload(payload, src, enc)
	return payload
}

// roundTrip is the shared request/response engine: resolve a connection,
// apply the deadline, negotiate the wire encoding, exchange one frame
// pair, and account stats. params is the logical transfer size for
// validation and BusBytes. build assembles the request in wc.frame;
// handle sees the response, whose payload aliases wc.recv. The connection
// is pooled again only after a fully clean exchange; any error discards
// it so retries start fresh.
func (d *Dialer) roundTrip(x comm.Xfer, params int, st *comm.TransferStats,
	build func(wc *wireConn, wireEnc comm.Encoding) error,
	handle func(wireEnc comm.Encoding, resp Frame) error) error {
	if err := x.Err(); err != nil {
		return fmt.Errorf("commnet: transfer cancelled: %w", err)
	}
	if x.Shard.Params() != params {
		return fmt.Errorf("commnet: %d params for shard %v (%d params)", params, x.Shard, x.Shard.Params())
	}
	deadline := d.opDeadline(x)
	wc, err := d.conn(deadline, st)
	if err != nil {
		return err
	}
	clean := false
	defer func() {
		if clean {
			d.putConn(wc)
		} else {
			_ = wc.c.Close()
		}
	}()
	_ = wc.c.SetDeadline(deadline)

	wireEnc := x.Enc
	if wireEnc == comm.FP16 && !wc.fp16OK {
		wireEnc = comm.FP32
	}
	if err := build(wc, wireEnc); err != nil {
		clean = true // nothing touched the wire
		return err
	}
	n, err := sendFrame(wc.c, wc.frame)
	st.Frames++
	st.WireBytes += int64(n)
	if err != nil {
		return err
	}
	resp, recv, rn, err := readFrameInto(wc.br, wc.recv, d.maxPayload())
	wc.recv = recv
	st.Frames++
	st.WireBytes += int64(rn)
	if err != nil {
		return err
	}
	if resp.Op == OpError {
		// An application-level refusal leaves the stream framed; the
		// connection is still good.
		clean = true
		return fmt.Errorf("commnet: server: %s", resp.Payload)
	}
	if err := handle(wireEnc, resp); err != nil {
		return err
	}
	st.BusBytes += int64(params) * int64(x.Enc.BytesPerParam())
	st.Copies += d.CopiesPerTransfer()
	clean = true
	return nil
}
