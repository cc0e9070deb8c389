package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Chunked zero-copy scanning primitives of the text reader. It cuts its
// input into ~ioChunkSize pieces at newline boundaries, reads each chunk
// through io.ReaderAt into a reused buffer (textSource, cutChunks), and
// parses it on a worker with byte-slice field scanning — no
// bufio.Scanner tokens, no strings.Fields allocations. Fields are handed
// to strconv through an unsafe zero-copy string view, so the steady-state
// parse loop does not allocate at all, and the text is never held whole.

// ioChunkSize is the target byte size of one parser chunk. ~1 MiB keeps
// per-chunk bookkeeping negligible while giving even modest files enough
// chunks to spread across workers.
const ioChunkSize = 1 << 20

// maxLineBytes mirrors the 1 MiB bufio.Scanner buffer of the serial test
// oracle: lines at or beyond this length are rejected with the scanner's
// own bufio.ErrTooLong, keeping the chunked reader's accept/reject
// behaviour identical to the oracle's.
const maxLineBytes = 1 << 20

// nextLine splits buf into its first line (without the trailing '\n') and
// the remainder after the newline. The final line of a buffer may lack a
// terminator. A trailing '\r' is NOT stripped here — the parsers TrimSpace
// every line anyway, and keeping the raw length makes the maxLineBytes
// check agree exactly with bufio.Scanner's buffer-full accounting.
func nextLine(buf []byte) (line, rest []byte) {
	if nl := bytes.IndexByte(buf, '\n'); nl >= 0 {
		return buf[:nl], buf[nl+1:]
	}
	return buf, nil
}

// asciiSpace marks the ASCII whitespace bytes, the same set strings.Fields
// uses for its fast path.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// nextField returns the first whitespace-separated field of s and the rest
// of s after it, splitting exactly like strings.Fields (Unicode whitespace
// included). A nil field means no field remains.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			i++
		} else {
			r, size := utf8.DecodeRune(s[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
	}
	if i == len(s) {
		return nil, nil
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != 0 {
				break
			}
			i++
		} else {
			r, size := utf8.DecodeRune(s[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
	}
	return s[start:i], s[i:]
}

// bstr reinterprets b as a string without copying. The view must not
// outlive b, and b must not be mutated while the view is live; the parsers
// only pass it to strconv, which retains nothing on success (the error
// path copies into a NumError, which the callers discard in favour of
// their own messages).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// asciiFields3 splits a line into exactly three whitespace-separated
// fields with a pure byte-table scan — the hot-path form of three
// nextField calls plus an extra-field check. ascii reports whether the
// whole line is ASCII; when false the caller must fall back to the
// Unicode-aware nextField path (a byte ≥ 0x80 could be UTF-8 whitespace).
// exact reports whether the line holds exactly three fields.
func asciiFields3(s []byte) (f0, f1, f2 []byte, exact, ascii bool) {
	i, n := 0, len(s)
	for f := 0; f < 3; f++ {
		for i < n && asciiSpace[s[i]] != 0 {
			i++
		}
		start := i
		for i < n {
			c := s[i]
			if c >= utf8.RuneSelf {
				return nil, nil, nil, false, false
			}
			if asciiSpace[c] != 0 {
				break
			}
			i++
		}
		if i == start {
			return f0, f1, f2, false, true // fewer than three fields
		}
		switch f {
		case 0:
			f0 = s[start:i]
		case 1:
			f1 = s[start:i]
		case 2:
			f2 = s[start:i]
		}
	}
	for i < n {
		c := s[i]
		if c >= utf8.RuneSelf {
			return nil, nil, nil, false, false
		}
		if asciiSpace[c] == 0 {
			return f0, f1, f2, false, true // a fourth field
		}
		i++
	}
	return f0, f1, f2, true, true
}

// parseDigits32 is the fast path for unsigned decimal int32 fields: pure
// digit strings of at most nine digits (so the value always fits). ok is
// false for anything else — signs, overflow-length, stray bytes — which
// the caller sends through strconv for identical accept/reject behaviour.
func parseDigits32(b []byte) (int32, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	var v int32
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int32(d)
	}
	return v, true
}

// parseI32 parses a base-10 int32 field: digit fast path first, strconv
// for everything else, so results and errors match ParseInt exactly.
func parseI32(b []byte) (int32, error) {
	if v, ok := parseDigits32(b); ok {
		return v, nil
	}
	v, err := strconv.ParseInt(bstr(b), 10, 32)
	return int32(v), err
}

// pow10f64 holds the exactly-representable float64 powers of ten.
var pow10f64 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float32pow10 holds the exactly-representable float32 powers of ten, the
// same table strconv's atof32exact divides by.
var float32pow10 = [11]float32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// foldDecimal converts an unsigned decimal mantissa with frac fractional
// digits (frac == -1 for integers) bit-identically to ParseFloat(s, 32).
//
// Two tiers, both producing correctly rounded results:
//
//   - value < 2^23 with ≤ 10 fractional digits: float32(mant) divided by
//     an exact float32 power of ten — exact operands, one correctly
//     rounded operation; this mirrors strconv's own atof32exact path.
//   - ≤ 15 digits: float64(mant) / 10^frac is the correctly rounded
//     float64 of the exact decimal (both operands exact, one division).
//     Rounding that float64 down to float32 is correct unless it lands
//     exactly on a float32 rounding midpoint (low 29 mantissa bits equal
//     100…0), where double rounding could break ties the wrong way —
//     those rare cases return ok=false and go through strconv.
//
// Everything else — no digits, a trailing '.', > 15 digits (mant may have
// wrapped) — is rejected for the strconv fallback, never mis-converted.
func foldDecimal(mant uint64, digits, frac int) (float32, bool) {
	if digits == 0 || digits > 15 || frac == 0 {
		return 0, false
	}
	if mant < 1<<23 && frac <= 10 {
		f := float32(mant)
		if frac > 0 {
			f /= float32pow10[frac]
		}
		return f, true
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10f64[frac]
	}
	if bits := math.Float64bits(f); bits&(1<<29-1) == 1<<28 {
		return 0, false // exactly a float32 midpoint: ambiguous under double rounding
	}
	return float32(f), true
}

// parseFloat32Fast converts unsigned plain-decimal fields — `d+` or
// `d+.d+`, no sign, no exponent — bit-identically to ParseFloat(s, 32)
// via foldDecimal. Anything else (signs, exponents, hex, inf/NaN) returns
// ok=false for the strconv fallback.
func parseFloat32Fast(b []byte) (float32, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var mant uint64
	digits, frac := 0, -1
	for _, c := range b {
		if c == '.' {
			if frac >= 0 {
				return 0, false
			}
			frac = 0
			continue
		}
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		mant = mant*10 + uint64(d)
		digits++
		if frac >= 0 {
			frac++
		}
	}
	return foldDecimal(mant, digits, frac)
}

// parseF32 parses a float32 rating field: plain-decimal fast path first,
// strconv for everything else, so results and errors match ParseFloat
// exactly.
func parseF32(b []byte) (float32, error) {
	if v, ok := parseFloat32Fast(b); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(bstr(b), 32)
	return float32(v), err
}

// readAllBytes slurps r, for the sources the text reader cannot ReadAt.
// When the source exposes its size (bytes.Buffer, regular files) the
// buffer is allocated once instead of doubling through io.ReadAll.
func readAllBytes(r io.Reader) ([]byte, error) {
	hint := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		hint = v.Len()
	case *os.File:
		if st, err := v.Stat(); err == nil && st.Mode().IsRegular() {
			if sz := st.Size(); sz > 0 && sz < 1<<40 {
				hint = int(sz)
			}
		}
	}
	buf := make([]byte, 0, hint+512)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// sizedReaderAt is a source the text reader can ReadAt directly, from its
// current offset Size()−Len() to Size(): *bytes.Reader and
// *strings.Reader.
type sizedReaderAt interface {
	io.ReaderAt
	Size() int64
	Len() int
}

// textSource returns r as the byte range [off, end) of a ReaderAt: a
// regular *os.File and a sizedReaderAt from their current offset, any
// other reader read whole into memory by readAllBytes. So is a regular
// file of size 0: some (those under /proc) hold text anyway.
func textSource(r io.Reader) (ra io.ReaderAt, off, end int64, err error) {
	switch v := r.(type) {
	case sizedReaderAt:
		return v, v.Size() - int64(v.Len()), v.Size(), nil
	case *os.File:
		if off, size, ok := fileRange(v); ok && size > 0 {
			return v, off, size, nil
		}
	}
	buf, err := readAllBytes(r)
	if err != nil {
		return nil, 0, 0, err
	}
	return bytes.NewReader(buf), 0, int64(len(buf)), nil
}

// fileRange reports the current offset, at most its size, and the size of
// f when f is a regular file.
func fileRange(f *os.File) (off, size int64, ok bool) {
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return 0, 0, false
	}
	off, err = f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0, false
	}
	return min(off, st.Size()), st.Size(), true
}

// readFullAt fills p from ra at off. A short read — the source shrank
// since its size was taken — is io.ErrUnexpectedEOF.
func readFullAt(ra io.ReaderAt, p []byte, off int64) error {
	n, err := ra.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// textChunk is one chunk [off, end) of the text body, with what the count
// pass learns of it — its line count, the number of lines before it, and
// its slot entries[first : first+slot] in the entries array — and the
// number of entries the parse pass put there.
type textChunk struct {
	off, end    int64
	lines, line int
	first, slot int
	parsed      int
}

func (c textChunk) len() int { return int(c.end - c.off) }

// cutChunks cuts [off, end) of ra into chunks of about target bytes with
// cutAt. The chunks concatenate to [off, end), none is empty, and every
// chunk but the last ends with '\n' unless a line of maxLineBytes or more
// crosses its cut.
func cutChunks(ra io.ReaderAt, off, end int64, target int) ([]textChunk, error) {
	var chunks []textChunk
	for off < end {
		next, err := cutAt(ra, off, end, target)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, textChunk{off: off, end: next})
		off = next
	}
	return chunks, nil
}

// cutProbe is the size of the reads cutAt looks for a newline with.
const cutProbe = 4 << 10

// cutAt returns the end of the chunk of [start, end) that starts at start:
// the whole remainder when it is at most target bytes, else just past the
// first newline at or after start+target, else end. The search stops
// maxLineBytes past start+target: no newline there means the line
// crossing start+target is too long to parse, so the chunk is cut
// mid-line. Its last line then holds at least maxLineBytes bytes, so its
// parse stops with bufio.ErrTooLong (or at an earlier error) and the next
// chunk, which starts mid-line, is never reported. Chunks are thus at
// most target+maxLineBytes bytes.
func cutAt(ra io.ReaderAt, start, end int64, target int) (int64, error) {
	cut := start + int64(max(target, 1))
	if cut >= end {
		return end, nil
	}
	limit := min(end, cut+maxLineBytes)
	var probe [cutProbe]byte
	for pos := cut; pos < limit; {
		p := probe[:min(int64(len(probe)), limit-pos)]
		if err := readFullAt(ra, p, pos); err != nil {
			return 0, err
		}
		if nl := bytes.IndexByte(p, '\n'); nl >= 0 {
			return pos + int64(nl) + 1, nil
		}
		pos += int64(len(p))
	}
	return limit, nil
}

// chunkPad is the number of zero bytes parseChunk wants after a chunk, so
// scanTriple can load 8 bytes at any position up to the chunk's end.
const chunkPad = 16

// scanTriple is the fused scanner and parser for the dominant text line
// shape: `d+[ \t]d+[ \t]d+(.d+)?` and a newline (or the end of the
// chunk), each digit run at most 8 digits. It reads the line at b[p:] in
// one pass, with no line or field slicing, taking each digit run 8 bytes
// at a time (digitRun, swarDigits), and returns the triple and the
// offset of the next line. b must hold chunkPad zero bytes past end.
// ok=false sends the line to the general path, so anything irregular —
// signs, extra fields or spaces, '\r', long digit runs, ambiguous float
// rounding — is parsed with byte-exact strings.Fields/strconv semantics
// instead.
func scanTriple(b []byte, p, end int) (u, i int32, v float32, next int, ok bool) {
	w := binary.LittleEndian.Uint64(b[p:])
	k := digitRun(w)
	if k == 0 || (b[p+k] != ' ' && b[p+k] != '\t') {
		return 0, 0, 0, 0, false
	}
	u = int32(swarDigits(w, k))
	p += k + 1
	w = binary.LittleEndian.Uint64(b[p:])
	k = digitRun(w)
	if k == 0 || (b[p+k] != ' ' && b[p+k] != '\t') {
		return 0, 0, 0, 0, false
	}
	i = int32(swarDigits(w, k))
	p += k + 1
	w = binary.LittleEndian.Uint64(b[p:])
	k = digitRun(w)
	if k == 0 {
		return 0, 0, 0, 0, false
	}
	mant, digits, frac := swarDigits(w, k), k, -1
	p += k
	if b[p] == '.' {
		p++
		w = binary.LittleEndian.Uint64(b[p:])
		k = digitRun(w)
		if k == 0 {
			return 0, 0, 0, 0, false
		}
		mant = mant*pow10u64[k] + swarDigits(w, k)
		digits += k
		frac = k
		p += k
	}
	switch {
	case b[p] == '\n':
		p++
	case p != end:
		return 0, 0, 0, 0, false // a fourth field, a stray byte, or a digit run over 8
	}
	v, ok = foldDecimal(mant, digits, frac)
	return u, i, v, p, ok
}

// pow10u64 holds the powers of ten a fraction of up to 8 digits shifts
// the integer part by.
var pow10u64 = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// digitRun returns how many of the 8 bytes in w, read little-endian (the
// first byte lowest), are ASCII digits before the first non-digit: 0 to 8.
// A byte's high bit is set in the mask unless it is a digit: below '0'
// the subtraction borrows into it, from ':' to 0xB9 the addition sets it,
// and from 0xBA up the subtraction leaves it set. Carries and borrows
// only start at non-digit bytes and only move to later bytes, so the
// lowest flagged byte is exactly the first non-digit.
func digitRun(w uint64) int {
	m := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
	return bits.TrailingZeros64(m) >> 3
}

// swarDigits returns the value of the first k (1 to 8) bytes of w, which
// must be ASCII digits, first byte most significant. The digits are
// shifted to the top of the word, so the bytes below are zeros, leading
// zeros of the value, and then adjacent digits, pairs and quads are
// combined by three multiplies (SWAR: SIMD within a register).
func swarDigits(w uint64, k int) uint64 {
	w = (w - 0x3030303030303030) << (64 - 8*uint(k))
	w = (w * (1 + 10<<8)) >> 8 & 0x00FF00FF00FF00FF
	w = (w * (1 + 100<<16)) >> 16 & 0x0000FFFF0000FFFF
	return (w * (1 + 10000<<32)) >> 32
}
