package comm

import (
	"context"
	"fmt"

	"hccmf/internal/fp16"
)

// TransferStats accounts one pull or push: bytes that crossed the
// worker↔server channel, and how many times the payload was copied through
// memory end to end. COMM's shared buffers need one copy; COMM-P's
// marshal/send/unmarshal path needs three. The simulated platform charges
// bus time from BusBytes and memory time from Copies. Retries counts
// failed attempts a Retrying decorator repeated; their bus traffic (e.g. a
// truncated payload's prefix) stays in BusBytes, so the cost model can
// charge the waste of a lossy link.
//
// The wire-level fields (Frames, Handshakes, WireBytes) are populated only
// by transports that put real octets on a real link (internal/comm/net);
// in-process transports leave them zero. BusBytes remains the *logical*
// payload volume — k·rows·BytesPerParam — on every transport, so the cost
// model's bus charge is transport-independent and framing overhead is
// never double-counted into simulated bus time.
type TransferStats struct {
	BusBytes int64
	Copies   int
	Retries  int
	// Frames counts protocol frames exchanged (requests, responses,
	// handshake frames) on a wire transport.
	Frames int
	// Handshakes counts connection establishments (dial + hello exchange)
	// this transfer triggered; steady-state transfers reuse pooled
	// connections and report zero.
	Handshakes int
	// WireBytes counts the octets that actually crossed the socket —
	// frame headers, handshake payloads, and the (possibly fp16-
	// compressed) payload bytes.
	WireBytes int64
}

// Add accumulates other into s.
func (s *TransferStats) Add(other TransferStats) {
	s.BusBytes += other.BusBytes
	s.Copies += other.Copies
	s.Retries += other.Retries
	s.Frames += other.Frames
	s.Handshakes += other.Handshakes
	s.WireBytes += other.WireBytes
}

// Matrix identifies which factor matrix a Shard addresses.
type Matrix uint8

const (
	// MatrixQ is the item-feature matrix (n×k), the payload that travels
	// every epoch.
	MatrixQ Matrix = iota
	// MatrixP is the user-feature matrix (m×k).
	MatrixP
)

// String implements fmt.Stringer.
func (m Matrix) String() string {
	switch m {
	case MatrixQ:
		return "Q"
	case MatrixP:
		return "P"
	default:
		return fmt.Sprintf("Matrix(%d)", uint8(m))
	}
}

// GlobalOwner is the Shard.Owner value naming the server's global copy of
// a matrix, as opposed to a worker's push buffer.
const GlobalOwner = -1

// Shard names the parameter block one transfer moves: which matrix, whose
// buffer (a worker's push shard or the global copy), and the flat float32
// element range [Lo, Hi) within that matrix. In-process transports, where
// caller-supplied dst/src slices already address the right memory, treat
// the shard as documentation; a wire transport uses it to tell the remote
// store which rows the payload is.
type Shard struct {
	Matrix Matrix
	// Owner is the worker index owning a push buffer, or GlobalOwner for
	// the server's global copy.
	Owner int
	// Lo, Hi delimit the flat element range [Lo, Hi) in the matrix's
	// row-major float32 array (row r of a k-wide matrix spans
	// [r·k, (r+1)·k)).
	Lo, Hi int
}

// Params reports the number of float32 parameters the shard spans.
func (sh Shard) Params() int { return sh.Hi - sh.Lo }

// String implements fmt.Stringer.
func (sh Shard) String() string {
	if sh.Owner == GlobalOwner {
		return fmt.Sprintf("%v/global[%d:%d]", sh.Matrix, sh.Lo, sh.Hi)
	}
	return fmt.Sprintf("%v/worker%d[%d:%d]", sh.Matrix, sh.Owner, sh.Lo, sh.Hi)
}

// GlobalShard names the global copy of matrix m over elements [lo, hi).
func GlobalShard(m Matrix, lo, hi int) Shard {
	return Shard{Matrix: m, Owner: GlobalOwner, Lo: lo, Hi: hi}
}

// WorkerShard names worker owner's push buffer of matrix m over [lo, hi).
func WorkerShard(m Matrix, owner, lo, hi int) Shard {
	return Shard{Matrix: m, Owner: owner, Lo: lo, Hi: hi}
}

// Xfer describes one transfer: the shard operand naming which rows move,
// the wire encoding, and an optional context carrying a deadline or
// cancellation. The zero value (unspecified shard, FP32, no deadline) is
// valid for in-process transports, which address memory through the
// caller's dst/src slices alone.
type Xfer struct {
	Shard Shard
	Enc   Encoding
	// Ctx, when non-nil, bounds the transfer: wire transports apply its
	// deadline to the socket and all transports fail fast when it is
	// already cancelled. A nil Ctx means no deadline.
	Ctx context.Context
}

// Err reports the context's cancellation state (nil for a nil Ctx).
func (x Xfer) Err() error {
	if x.Ctx == nil {
		return nil
	}
	return x.Ctx.Err()
}

// truncated returns the Xfer describing the leading cut params of x's
// transfer: the shard range shrinks with the payload, so a wire transport
// still sees a self-consistent (shard, payload) pair for the prefix that
// crossed before an injected cut.
func (x Xfer) truncated(cut int) Xfer {
	if x.Shard.Hi > x.Shard.Lo+cut {
		x.Shard.Hi = x.Shard.Lo + cut
	}
	return x
}

// Transport moves float32 feature vectors between a worker and the server.
// Implementations must be safe for concurrent use by distinct workers.
//
// Optional capabilities live on side interfaces rather than here: a
// transport that owns OS resources implements io.Closer (release it with
// CloseTransport, which sees through decorators), and one whose
// server-side buffers live in another process implements Remote.
type Transport interface {
	// Name identifies the transport ("COMM", "COMM-P", "TCP").
	Name() string
	// Pull copies the shard named by x (server-side global data) into dst
	// (worker-local). In-process transports read the caller-shared src;
	// remote transports serve the shard from the remote store and ignore
	// src (which may be nil).
	Pull(dst, src []float32, x Xfer) (TransferStats, error)
	// Push copies src (worker-local data) into the shard named by x and
	// into dst (the server-side buffer the caller folds from). dst always
	// receives the encode/decode round trip of src under x.Enc, exactly
	// what came out of the wire.
	Push(dst, src []float32, x Xfer) (TransferStats, error)
	// CopiesPerTransfer reports the end-to-end memory copy count of the
	// transport's data path, the quantity the paper minimises.
	CopiesPerTransfer() int
}

// Remote is the optional capability of transports whose server-side
// buffers live in another OS process. The parameter-server cluster uses it
// to publish the authoritative global shards after each sync, so the next
// epoch's Pulls are served from the remote store; in-process transports
// share the caller's address space and never need it. Resolve the
// capability with AsRemote — decorators forward these methods, so a
// decorated remote stack retries/faults/observes SyncShard like any other
// transfer.
type Remote interface {
	// RemoteAddr reports the server endpoint the transport is bound to.
	RemoteAddr() string
	// SyncShard uploads src as the authoritative bytes of the shard named
	// by x, overwriting the remote store.
	SyncShard(src []float32, x Xfer) (TransferStats, error)
}

// Unwrapper is implemented by decorators; capability helpers use it to
// reach the base transport.
type Unwrapper interface {
	Unwrap() Transport
}

// Base unwraps decorators down to the innermost transport.
func Base(t Transport) Transport {
	for {
		u, ok := t.(Unwrapper)
		if !ok {
			return t
		}
		t = u.Unwrap()
	}
}

// AsRemote resolves the Remote capability of a (possibly decorated)
// transport stack. The check is against the base transport — decorators
// implement Remote unconditionally to forward it, so asserting on the
// outermost layer alone would claim every decorated stack is remote.
func AsRemote(t Transport) (Remote, bool) {
	if _, ok := Base(t).(Remote); !ok {
		return nil, false
	}
	r, ok := t.(Remote)
	return r, ok
}

// CloseTransport releases the base transport's OS resources (network
// connections), seeing through decorators, which own none of their own.
// In-process transports are resource-free; closing them is a no-op.
func CloseTransport(t Transport) error {
	if c, ok := Base(t).(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// SharedMem is the paper's COMM module: a pull buffer on the server mapped
// into every worker's address space and a push buffer per worker mapped
// into the server's. Because both sides address the same physical pages,
// a transfer is a single memcpy (plus an in-register FP16 stage when
// Strategy 2 is active) and point-to-point transfers bypass the kernel.
// Construct it through the registry (New with KindShared).
type SharedMem struct {
	// workers records the sizing hint; the FP16 stage lives on the stack
	// (fp16.RoundTripSlice), so steady-state transfers allocate nothing.
	workers int
}

// newSharedMem creates the COMM transport for the given worker count
// (clamped to ≥1).
func newSharedMem(workers int) *SharedMem {
	if workers < 1 {
		workers = 1
	}
	return &SharedMem{workers: workers}
}

// Name implements Transport.
func (s *SharedMem) Name() string { return "COMM" }

// CopiesPerTransfer implements Transport: shared mappings mean the single
// copy from source buffer to destination buffer.
func (s *SharedMem) CopiesPerTransfer() int { return 1 }

// Pull implements Transport.
func (s *SharedMem) Pull(dst, src []float32, x Xfer) (TransferStats, error) {
	return sharedCopy(dst, src, x)
}

// Push implements Transport.
func (s *SharedMem) Push(dst, src []float32, x Xfer) (TransferStats, error) {
	return sharedCopy(dst, src, x)
}

func sharedCopy(dst, src []float32, x Xfer) (TransferStats, error) {
	if err := x.Err(); err != nil {
		return TransferStats{}, fmt.Errorf("comm: transfer cancelled: %w", err)
	}
	if len(dst) != len(src) {
		return TransferStats{}, fmt.Errorf("comm: length mismatch dst=%d src=%d", len(dst), len(src))
	}
	switch x.Enc {
	case FP32:
		copy(dst, src)
	case FP16:
		// The wire carries binary16; both endpoints convert while
		// streaming through the shared buffer in L1-sized stages, so it
		// is still one pass over memory.
		fp16.RoundTripSlice(dst, src)
	default:
		return TransferStats{}, fmt.Errorf("comm: unknown encoding %v", x.Enc)
	}
	return TransferStats{
		BusBytes: int64(len(src)) * int64(x.Enc.BytesPerParam()),
		Copies:   1,
	}, nil
}

// Message is the COMM-P baseline modelled on ps-lite: every transfer
// marshals the payload into a fresh message buffer, hands it through a
// channel (the kernel/IPC crossing), and unmarshals on the far side —
// three passes over the data with a temporary allocation per message,
// exactly the overheads Table 5 measures against COMM. Construct it
// through the registry (New with KindMessage).
type Message struct {
	// mailbox carries marshalled payloads; its buffering models the
	// store-and-forward queue of the message layer.
	mailbox chan []byte
}

// newMessage creates the COMM-P transport.
func newMessage() *Message {
	return &Message{mailbox: make(chan []byte, 1)}
}

// Name implements Transport.
func (m *Message) Name() string { return "COMM-P" }

// CopiesPerTransfer implements Transport: marshal, queue hand-off, and
// unmarshal each traverse the payload.
func (m *Message) CopiesPerTransfer() int { return 3 }

// Pull implements Transport.
func (m *Message) Pull(dst, src []float32, x Xfer) (TransferStats, error) {
	return m.send(dst, src, x)
}

// Push implements Transport.
func (m *Message) Push(dst, src []float32, x Xfer) (TransferStats, error) {
	return m.send(dst, src, x)
}

func (m *Message) send(dst, src []float32, x Xfer) (TransferStats, error) {
	if err := x.Err(); err != nil {
		return TransferStats{}, fmt.Errorf("comm: transfer cancelled: %w", err)
	}
	if len(dst) != len(src) {
		return TransferStats{}, fmt.Errorf("comm: length mismatch dst=%d src=%d", len(dst), len(src))
	}
	// Marshal: copy 1 (fresh temporary per message — ps-lite allocates).
	wire, err := marshal(src, x.Enc)
	if err != nil {
		return TransferStats{}, err
	}
	// Queue hand-off: copy 2 (the IPC/kernel crossing; modelled as a copy
	// into a second buffer so the cost structure is honest even though a
	// Go channel could share the backing array).
	crossed := make([]byte, len(wire))
	copy(crossed, wire)
	m.mailbox <- crossed
	received := <-m.mailbox
	// Unmarshal: copy 3.
	if err := unmarshal(dst, received, x.Enc); err != nil {
		return TransferStats{}, err
	}
	return TransferStats{
		BusBytes: int64(len(wire)),
		Copies:   3,
	}, nil
}

func marshal(src []float32, enc Encoding) ([]byte, error) {
	switch enc {
	case FP32:
		out := make([]byte, 4*len(src))
		for i, v := range src {
			putFloat32(out[4*i:], v)
		}
		return out, nil
	case FP16:
		out := make([]byte, 2*len(src))
		fp16.EncodeWire(out, src)
		return out, nil
	default:
		return nil, fmt.Errorf("comm: unknown encoding %v", enc)
	}
}

func unmarshal(dst []float32, wire []byte, enc Encoding) error {
	switch enc {
	case FP32:
		if len(wire) != 4*len(dst) {
			return fmt.Errorf("comm: wire size %d for %d params", len(wire), len(dst))
		}
		for i := range dst {
			dst[i] = getFloat32(wire[4*i:])
		}
		return nil
	case FP16:
		if len(wire) != 2*len(dst) {
			return fmt.Errorf("comm: wire size %d for %d params", len(wire), len(dst))
		}
		fp16.DecodeWire(dst, wire)
		return nil
	default:
		return fmt.Errorf("comm: unknown encoding %v", enc)
	}
}
