package commnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"hccmf/internal/comm"
	"hccmf/internal/fp16"
)

func TestFrameRoundTrip(t *testing.T) {
	src := []float32{1.5, -2.25, 0, 3e-5, 42}
	for _, enc := range []comm.Encoding{comm.FP32, comm.FP16} {
		f := Frame{
			Op:      OpPush,
			Shard:   comm.WorkerShard(comm.MatrixP, 3, 10, 15),
			Enc:     enc,
			Payload: encodePayload(nil, src, enc),
		}
		buf := appendFrame(nil, &f)
		got, n, err := DecodeFrame(buf, 1<<16)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", enc, n, len(buf))
		}
		if got.Op != f.Op || got.Shard != f.Shard || got.Enc != f.Enc {
			t.Fatalf("%v: header mangled: %+v", enc, got)
		}
		dst := make([]float32, len(src))
		if _, err := payloadParams(got.Shard, got.Enc, len(got.Payload)); err != nil {
			t.Fatal(err)
		}
		decodePayload(dst, got.Payload, got.Enc)
		for i := range src {
			want := src[i]
			if enc == comm.FP16 {
				want = fp16RoundTripOne(src[i])
			}
			if dst[i] != want {
				t.Fatalf("%v: param %d = %v, want %v", enc, i, dst[i], want)
			}
		}
	}
}

func fp16RoundTripOne(v float32) float32 {
	return fp16.FromFloat32(v).ToFloat32()
}

// appendFrame serialises f onto buf and returns the extended slice.
func appendFrame(buf []byte, f *Frame) []byte {
	return append(buf, encodeFrame(nil, f)...)
}

// encodePayload appends src under enc to buf.
func encodePayload(buf []byte, src []float32, enc comm.Encoding) []byte {
	payload := make([]byte, len(src)*enc.BytesPerParam())
	putPayload(payload, src, enc)
	return append(buf, payload...)
}

func TestFrameStreamRoundTrip(t *testing.T) {
	// Frames written back to back must read back one at a time (the
	// connection is a byte stream, not a datagram socket).
	var buf bytes.Buffer
	frames := []Frame{
		{Op: OpHello, Payload: helloPayload(4, 5, 2, true)},
		{Op: OpPull, Shard: comm.GlobalShard(comm.MatrixQ, 0, 10), Enc: comm.FP16},
		{Op: OpAck},
	}
	var scratch []byte
	for i := range frames {
		var err error
		scratch, _, err = writeFrame(&buf, scratch, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		got, _, err := readFrame(&buf, maxHandshakePayload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != frames[i].Op {
			t.Fatalf("frame %d op = %v, want %v", i, got.Op, frames[i].Op)
		}
	}
}

func TestDecodeFrameRejectsMalformed(t *testing.T) {
	valid := appendFrame(nil, &Frame{
		Op:      OpData,
		Shard:   comm.GlobalShard(comm.MatrixQ, 0, 2),
		Enc:     comm.FP32,
		Payload: make([]byte, 8),
	})
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		fn(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"short", valid[:10], "short frame"},
		{"magic", mutate(func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"version", mutate(func(b []byte) { b[4] = 9 }), "wire version"},
		{"op-zero", mutate(func(b []byte) { b[5] = 0 }), "unknown op"},
		{"op-high", mutate(func(b []byte) { b[5] = 200 }), "unknown op"},
		{"matrix", mutate(func(b []byte) { b[6] = 7 }), "unknown matrix"},
		{"encoding", mutate(func(b []byte) { b[7] = 5 }), "unknown encoding"},
		{"owner", mutate(func(b []byte) { b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x00 }), "owner"},
		{"range", mutate(func(b []byte) { b[12], b[15] = 0x10, 0xff }), "shard range"},
		{"length", mutate(func(b []byte) { b[20] = 0xff }), "exceeds limit"},
		{"truncated", valid[:len(valid)-3], "truncated"},
	}
	for _, tc := range cases {
		_, _, err := DecodeFrame(tc.buf, 1<<16)
		if err == nil {
			t.Fatalf("%s: malformed frame accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeHeaderBoundsAllocation(t *testing.T) {
	// A hostile length field must be rejected against maxPayload before
	// any buffer is sized from it.
	f := Frame{Op: OpData, Shard: comm.GlobalShard(comm.MatrixQ, 0, 1<<20), Enc: comm.FP32}
	hdr := appendFrame(nil, &f)[:headerSize]
	hdr[20], hdr[21], hdr[22], hdr[23] = 0x7f, 0xff, 0xff, 0xff
	if _, _, err := decodeHeader(hdr, 1<<16); err == nil {
		t.Fatal("2GB payload length accepted against a 64KB limit")
	}
}

func TestHelloPayloadRoundTrip(t *testing.T) {
	m, n, k, fp16, err := parseHello(helloPayload(480189, 17770, 128, true))
	if err != nil {
		t.Fatal(err)
	}
	if m != 480189 || n != 17770 || k != 128 || !fp16 {
		t.Fatalf("parsed %d %d %d %v", m, n, k, fp16)
	}
	if _, _, _, _, err := parseHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
	if _, _, _, _, err := parseHello(helloPayload(0, 5, 5, false)); err == nil {
		t.Fatal("zero dimension accepted")
	}
	// m·k and n·k must fit the uint32 shard bounds; exactly 2³²−1 params fit.
	if _, _, _, _, err := parseHello(helloPayload(1<<31, 4, 1<<20, false)); err == nil {
		t.Fatal("P beyond the uint32 shard range accepted")
	}
	if _, _, _, _, err := parseHello(helloPayload(4, 1<<16, 1<<16, false)); err == nil {
		t.Fatal("Q beyond the uint32 shard range accepted")
	}
	if _, _, _, _, err := parseHello(helloPayload(65535, 3, 65537, false)); err != nil {
		t.Fatalf("a 2³²−1-param matrix refused: %v", err)
	}
}

func TestPayloadParamsValidates(t *testing.T) {
	sh := comm.GlobalShard(comm.MatrixQ, 0, 4)
	if _, err := payloadParams(sh, comm.FP32, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := payloadParams(sh, comm.FP32, 15); err == nil {
		t.Fatal("ragged payload accepted")
	}
	if _, err := payloadParams(sh, comm.FP32, 20); err == nil {
		t.Fatal("payload/shard mismatch accepted")
	}
	if _, err := payloadParams(sh, comm.FP16, 8); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaConstant(t *testing.T) {
	if WireSchema != "hccmf-wire/v1" {
		t.Fatalf("WireSchema = %q", WireSchema)
	}
	if wireVersion != 1 {
		t.Fatalf("wireVersion = %d does not match %s", wireVersion, WireSchema)
	}
}

// TestFP32PayloadViewMatchesLoop checks that an FP32 payload moved through
// the []float32 view (a 4-byte-aligned slot, as in every frame) and one
// moved by the per-element loop (a slot one byte off) carry identical
// bytes, the little-endian wire layout, and decode to identical floats,
// NaN payloads and signed zeros included.
func TestFP32PayloadViewMatchesLoop(t *testing.T) {
	for n := 0; n <= 17; n++ {
		src := make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(uint32(i)*0x9e3779b1 ^ 0x80000000*uint32(i&1))
		}
		want := make([]byte, 4*n)
		for i, v := range src {
			binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(v))
		}
		// A word array keeps the slot at offset 0 4-byte aligned: a short
		// []byte may come from the tiny allocator at any address.
		words := make([]uint32, n+1)
		backing := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 4*n+4)
		for _, off := range []int{0, 1} {
			slot := backing[off : off+4*n]
			if view := float32View(slot) != nil; view != (off == 0 && n > 0 && littleEndian) {
				t.Fatalf("n=%d off=%d: view taken = %v", n, off, view)
			}
			putPayload(slot, src, comm.FP32)
			if !bytes.Equal(slot, want) {
				t.Fatalf("n=%d off=%d: payload % x, want % x", n, off, slot, want)
			}
			got := make([]float32, n)
			decodePayload(got, slot, comm.FP32)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
					t.Fatalf("n=%d off=%d: decoded[%d] = %#08x, want %#08x", n, off, i, math.Float32bits(got[i]), math.Float32bits(src[i]))
				}
			}
		}
	}
}
