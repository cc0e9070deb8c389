// Package commnet implements the hccmf-wire/v1 protocol: a TCP transport
// for the parameter server, so COMM-P's message-passing path finally spans
// real process (and machine) boundaries instead of being modelled between
// goroutines.
//
// Every exchange is a length-prefixed frame:
//
//	offset size  field
//	0      4     magic "HCWF"
//	4      1     schema version (1)
//	5      1     op (hello, hello-ok, pull, data, push, ack, error)
//	6      1     matrix (0 = Q, 1 = P)
//	7      1     encoding (0 = fp32, 1 = fp16)
//	8      4     shard owner (int32 big-endian; -1 = the global copy)
//	12     4     shard lo (flat float32 element offset)
//	16     4     shard hi
//	20     4     payload length in bytes
//	24     …     payload
//
// All integers are big-endian. A connection starts with a hello/hello-ok
// handshake carrying the factor dimensions (m, n, k) and the fp16
// capability bit; after that the client issues pull (→ data) and push
// (→ ack) requests. Feature payloads are raw little-endian float32 or, when
// both ends negotiated it, IEEE binary16 from internal/fp16 — halving the
// octets on the wire exactly like the in-process Strategy 2 halves bus
// bytes. Either side answers a malformed or unserviceable request with an
// error frame whose payload is the message text; the stream stays framed,
// so the connection survives an application-level error.
//
// The package deliberately lives OUTSIDE the simtime invariant (its name is
// not in the analyzer's sim set): socket deadlines need the wall clock.
// Everything that reaches the cost model still flows through
// comm.TransferStats, where BusBytes stays the logical payload volume and
// the real octets land in WireBytes.
package commnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"hccmf/internal/comm"
	"hccmf/internal/fp16"
)

// WireSchema is the versioned name of the framing protocol; the handshake
// rejects peers speaking any other version.
const WireSchema = "hccmf-wire/v1"

// wireVersion is the version octet matching WireSchema.
const wireVersion = 1

// magic opens every frame.
var magic = [4]byte{'H', 'C', 'W', 'F'}

// headerSize is the fixed frame prefix, payload excluded.
const headerSize = 24

// Op is the frame operation.
type Op uint8

const (
	// OpHello opens a connection: payload = m, n, k (uint32 each) plus one
	// capability byte (bit 0: client can decode fp16 payloads).
	OpHello Op = 1
	// OpHelloOK accepts a hello: payload = one capability byte (bit 0:
	// server accepted fp16 payloads on this connection).
	OpHelloOK Op = 2
	// OpPull requests the shard named in the header; no payload.
	OpPull Op = 3
	// OpData answers a pull with the shard's payload.
	OpData Op = 4
	// OpPush uploads the payload into the shard named in the header. An
	// owner ≥ 0 targets that worker's push buffer; owner −1 overwrites the
	// server's authoritative global copy (the cluster's sync publish).
	OpPush Op = 5
	// OpAck answers a successful push; no payload.
	OpAck Op = 6
	// OpError answers any request that failed; payload = message text.
	OpError Op = 7
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpHelloOK:
		return "hello-ok"
	case OpPull:
		return "pull"
	case OpData:
		return "data"
	case OpPush:
		return "push"
	case OpAck:
		return "ack"
	case OpError:
		return "error"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

func validOp(o Op) bool { return o >= OpHello && o <= OpError }

// Frame is one decoded protocol frame.
type Frame struct {
	Op      Op
	Shard   comm.Shard
	Enc     comm.Encoding
	Payload []byte
}

// maxHandshakePayload bounds hello/hello-ok payloads: 12 dimension bytes
// plus one capability byte, with room for future capability bytes.
const maxHandshakePayload = 64

// helloCapFP16 is the capability bit for fp16 payload compression.
const helloCapFP16 = 1

// putFrame sizes buf (reusing its capacity) to f's header plus a plen-byte
// payload, writes the header, and returns the frame and its payload slot
// for the caller to fill in place. f.Payload is ignored. Connections keep
// their frame buffers across transfers, so steady-state frames are built
// without allocating and without staging the payload in a second buffer.
func putFrame(buf []byte, f *Frame, plen int) (frame, payload []byte) {
	n := headerSize + plen
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	copy(buf[0:4], magic[:])
	buf[4] = wireVersion
	buf[5] = byte(f.Op)
	buf[6] = byte(f.Shard.Matrix)
	buf[7] = byte(f.Enc)
	binary.BigEndian.PutUint32(buf[8:12], uint32(int32(f.Shard.Owner)))
	binary.BigEndian.PutUint32(buf[12:16], uint32(f.Shard.Lo))
	binary.BigEndian.PutUint32(buf[16:20], uint32(f.Shard.Hi))
	binary.BigEndian.PutUint32(buf[20:24], uint32(plen))
	return buf, buf[headerSize:]
}

// encodeFrame assembles f, payload copied, into buf (reused scratch).
func encodeFrame(buf []byte, f *Frame) []byte {
	buf, payload := putFrame(buf, f, len(f.Payload))
	copy(payload, f.Payload)
	return buf
}

// writeFrame sends one frame assembled in buf (reused scratch), reporting
// the octets written.
func writeFrame(w io.Writer, buf []byte, f *Frame) (scratch []byte, n int, err error) {
	buf = encodeFrame(buf, f)
	n, err = sendFrame(w, buf)
	return buf, n, err
}

// sendFrame writes an assembled frame, reporting the octets written.
func sendFrame(w io.Writer, frame []byte) (int, error) {
	n, err := w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("commnet: write %s frame: %w", Op(frame[5]), err)
	}
	return n, nil
}

// decodeHeader validates the fixed prefix and returns the frame skeleton
// plus its declared payload length. maxPayload caps what the caller is
// willing to allocate/read — a malformed or hostile length field must
// error here, before any allocation.
func decodeHeader(hdr []byte, maxPayload int) (Frame, int, error) {
	var f Frame
	if len(hdr) < headerSize {
		return f, 0, fmt.Errorf("commnet: short header: %d bytes", len(hdr))
	}
	if [4]byte(hdr[0:4]) != magic {
		return f, 0, fmt.Errorf("commnet: bad magic %q (want %s)", hdr[0:4], WireSchema)
	}
	if hdr[4] != wireVersion {
		return f, 0, fmt.Errorf("commnet: wire version %d, want %d (%s)", hdr[4], wireVersion, WireSchema)
	}
	f.Op = Op(hdr[5])
	if !validOp(f.Op) {
		return f, 0, fmt.Errorf("commnet: unknown op %d", hdr[5])
	}
	if hdr[6] > uint8(comm.MatrixP) {
		return f, 0, fmt.Errorf("commnet: unknown matrix %d", hdr[6])
	}
	f.Shard.Matrix = comm.Matrix(hdr[6])
	if hdr[7] > uint8(comm.FP16) {
		return f, 0, fmt.Errorf("commnet: unknown encoding %d", hdr[7])
	}
	f.Enc = comm.Encoding(hdr[7])
	f.Shard.Owner = int(int32(binary.BigEndian.Uint32(hdr[8:12])))
	if f.Shard.Owner < comm.GlobalOwner {
		return f, 0, fmt.Errorf("commnet: shard owner %d", f.Shard.Owner)
	}
	f.Shard.Lo = int(binary.BigEndian.Uint32(hdr[12:16]))
	f.Shard.Hi = int(binary.BigEndian.Uint32(hdr[16:20]))
	if f.Shard.Lo > f.Shard.Hi {
		return f, 0, fmt.Errorf("commnet: shard range [%d,%d)", f.Shard.Lo, f.Shard.Hi)
	}
	n := int(binary.BigEndian.Uint32(hdr[20:24]))
	if n > maxPayload {
		return f, 0, fmt.Errorf("commnet: payload %d bytes exceeds limit %d", n, maxPayload)
	}
	return f, n, nil
}

// readFrame reads one complete frame into a fresh buffer. maxPayload
// bounds the allocation (see decodeHeader); the returned byte count is the
// octets consumed. It serves the once-per-connection handshake; transfers
// read through readFrameInto.
func readFrame(r io.Reader, maxPayload int) (Frame, int, error) {
	f, _, n, err := readFrameInto(r, nil, maxPayload)
	return f, n, err
}

// readFrameInto reads one complete frame into buf (a connection's reused
// receive buffer), growing it only when the declared payload — already
// checked against maxPayload — does not fit. It returns the frame, whose
// Payload aliases the buffer until the next read, the buffer for reuse,
// and the octets consumed.
func readFrameInto(r io.Reader, buf []byte, maxPayload int) (Frame, []byte, int, error) {
	if cap(buf) < headerSize {
		buf = make([]byte, headerSize)
	}
	hdr := buf[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, 0, fmt.Errorf("commnet: read frame header: %w", err)
	}
	f, n, err := decodeHeader(hdr, maxPayload)
	if err != nil {
		return Frame{}, buf, headerSize, err
	}
	if n > 0 {
		if cap(buf) < headerSize+n {
			buf = make([]byte, headerSize+n) // the header is decoded already
		}
		f.Payload = buf[headerSize : headerSize+n]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, buf, headerSize, fmt.Errorf("commnet: read %s payload (%d bytes): %w", f.Op, n, err)
		}
	}
	return f, buf, headerSize + n, nil
}

// DecodeFrame parses one frame from a byte buffer — the fuzzable entry
// point sharing readFrame's validation. It returns the frame and the bytes
// consumed.
func DecodeFrame(buf []byte, maxPayload int) (Frame, int, error) {
	if len(buf) < headerSize {
		return Frame{}, 0, fmt.Errorf("commnet: short frame: %d bytes", len(buf))
	}
	f, n, err := decodeHeader(buf[:headerSize], maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(buf) < headerSize+n {
		return Frame{}, 0, fmt.Errorf("commnet: frame truncated: %d of %d payload bytes", len(buf)-headerSize, n)
	}
	if n > 0 {
		f.Payload = buf[headerSize : headerSize+n]
	}
	return f, headerSize + n, nil
}

// payloadParams reports how many float32 parameters a data/push payload of
// plen bytes carries under enc, validating it against the shard range.
func payloadParams(sh comm.Shard, enc comm.Encoding, plen int) (int, error) {
	bpp := enc.BytesPerParam()
	if plen%bpp != 0 {
		return 0, fmt.Errorf("commnet: %d payload bytes not a multiple of %d (%v)", plen, bpp, enc)
	}
	params := plen / bpp
	if params != sh.Params() {
		return 0, fmt.Errorf("commnet: payload carries %d params for shard %v (%d params)", params, sh, sh.Params())
	}
	return params, nil
}

// putPayload encodes src under enc into the payload slot dst, which holds
// exactly len(src)·BytesPerParam bytes.
func putPayload(dst []byte, src []float32, enc comm.Encoding) {
	switch enc {
	case comm.FP16:
		fp16.EncodeWire(dst, src)
	default:
		dst = dst[:4*len(src)]
		if v := float32View(dst); v != nil {
			copy(v, src)
			return
		}
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	}
}

// decodePayload fills dst from a wire payload under enc. len(dst) must
// already match (payloadParams validated it).
func decodePayload(dst []float32, payload []byte, enc comm.Encoding) {
	switch enc {
	case comm.FP16:
		fp16.DecodeWire(dst, payload)
	default:
		payload = payload[:4*len(dst)]
		if v := float32View(payload); v != nil {
			copy(dst, v)
			return
		}
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	}
}

// littleEndian reports whether this host stores a float32 low byte first,
// i.e. whether a []float32 already has the FP32 wire layout.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float32View returns the FP32 payload b as the []float32 it holds (four
// little-endian bytes per value), or nil when that view is not the
// in-memory layout: on a big-endian host, or when b is not 4-byte
// aligned. Every production payload is aligned, because the frame header
// is 24 bytes; a misaligned one takes the per-element loop.
func float32View(b []byte) []float32 {
	if !littleEndian || len(b) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// helloPayload encodes the handshake dimensions and capability bits.
func helloPayload(m, n, k int, fp16 bool) []byte {
	buf := make([]byte, 13)
	binary.BigEndian.PutUint32(buf[0:4], uint32(m))
	binary.BigEndian.PutUint32(buf[4:8], uint32(n))
	binary.BigEndian.PutUint32(buf[8:12], uint32(k))
	if fp16 {
		buf[12] = helloCapFP16
	}
	return buf
}

// parseHello decodes a hello payload.
func parseHello(payload []byte) (m, n, k int, fp16 bool, err error) {
	if len(payload) < 13 {
		return 0, 0, 0, false, fmt.Errorf("commnet: hello payload %d bytes, want ≥13", len(payload))
	}
	m = int(binary.BigEndian.Uint32(payload[0:4]))
	n = int(binary.BigEndian.Uint32(payload[4:8]))
	k = int(binary.BigEndian.Uint32(payload[8:12]))
	if m <= 0 || n <= 0 || k <= 0 {
		return 0, 0, 0, false, fmt.Errorf("commnet: hello dims m=%d n=%d k=%d", m, n, k)
	}
	// Every shard bound travels as a uint32 (Shard.Lo/Hi), so a matrix of
	// more than MaxUint32 params cannot be addressed on the wire. Refusing
	// such shapes here also keeps the server's 4·max(m,n)·k payload cap and
	// its matrix-sized store allocations in range. m, n and k are each
	// below 2³², so the uint64 products cannot overflow. The message stays
	// short enough to fit the peer's maxHandshakePayload.
	if uint64(m)*uint64(k) > math.MaxUint32 || uint64(n)*uint64(k) > math.MaxUint32 {
		return 0, 0, 0, false, errors.New("commnet: hello dims exceed the uint32 shard range")
	}
	return m, n, k, payload[12]&helloCapFP16 != 0, nil
}
