package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"hccmf/internal/parallel"
	"hccmf/internal/sparse"
)

// Text format: a header line "m n nnz" followed by one "user item rating"
// triple per line (0-based indexes). Lines starting with '%' or '#' are
// comments. This is compatible with the common MF benchmark layout and a
// strict subset of MatrixMarket coordinate bodies.
//
// The reader is a chunked pipeline: it cuts the input into ~1 MiB chunks
// at newline boundaries, counts each chunk's lines to give it a slot in
// the entries array, and parses each chunk straight into its slot on a
// worker. A serial bufio.Scanner reader in the tests defines the format:
// equivalence tests and fuzz targets hold the pipeline to its accepted
// entries, entry order and error messages byte for byte.

// WriteText writes the matrix in the text triple format. Lines are
// rendered with strconv.Append* into a reused block buffer — the output is
// byte-identical to the previous fmt.Fprintf("%d %d %g\n") rendering.
func WriteText(w io.Writer, m *sparse.COO) error {
	buf := make([]byte, 0, ioWriteBlock)
	buf = strconv.AppendInt(buf, int64(m.Rows), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m.Cols), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m.NNZ()), 10)
	buf = append(buf, '\n')
	for _, e := range m.Entries {
		if len(buf) > ioWriteBlock-64 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.I), 10)
		buf = append(buf, ' ')
		// fmt's %g on a float32 operand is AppendFloat('g', -1, 32).
		buf = strconv.AppendFloat(buf, float64(e.V), 'g', -1, 32)
		buf = append(buf, '\n')
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadText parses the text triple format with GOMAXPROCS parse workers.
func ReadText(r io.Reader) (*sparse.COO, error) {
	return ReadTextWorkers(r, runtime.GOMAXPROCS(0))
}

// ReadTextWorkers parses the text triple format with the given number of
// parse workers; workers <= 1 runs the same chunked pipeline on one.
//
// It reads from the current offset of r to its end through ReadAt when r
// is a regular *os.File, a *bytes.Reader or a *strings.Reader, and leaves
// r's offset where it was; any other reader is read whole into memory
// first.
func ReadTextWorkers(r io.Reader, workers int) (*sparse.COO, error) {
	ra, off, end, err := textSource(r)
	if err != nil {
		return nil, err
	}
	return readTextAt(ra, off, end, workers, ioChunkSize)
}

// errNNZMismatch is the error the text reader returns when the header's
// declared entry count disagrees with the triples actually present (the
// binary reader enforces its count by construction).
func errNNZMismatch(declared, got int) error {
	return fmt.Errorf("dataset: header declares %d entries, file has %d", declared, got)
}

// readTextAt is the chunked pipeline behind ReadTextWorkers. It reads the
// text in [off, end) of ra straight into the entries array, in four
// steps, so the text is never held whole and no entry is copied twice:
//
//   - cut: the header is located sequentially (it is within the first
//     few lines), and the body after it is cut into ~chunkSize chunks at
//     newline boundaries by small ReadAt probes;
//   - count: each worker reads its chunks into one reused buffer and
//     counts their lines, which gives every chunk a slot in the entries
//     array and the absolute line number it starts at;
//   - parse: each worker reads its chunks again and parses them straight
//     into their slots;
//   - compact: slots that comment or blank lines left part empty are
//     closed up in chunk order.
//
// Entry order and errors match the serial test oracle exactly: the first
// error in chunk order is the first error in input order, and it carries
// the line number the oracle reports. chunkSize is a parameter so tests
// can force many tiny chunks.
func readTextAt(ra io.ReaderAt, off, end int64, workers, chunkSize int) (*sparse.COO, error) {
	h, body, line, err := readTextHeader(ra, off, end)
	if err != nil {
		return nil, err
	}
	chunks, err := cutChunks(ra, body, end, chunkSize)
	if err != nil {
		return nil, err
	}
	longest := 0
	for _, c := range chunks {
		longest = max(longest, c.len())
	}
	// The count pass hands its buffers to the parse pass.
	var bufs sync.Pool
	getBuf := func() []byte {
		if b, ok := bufs.Get().(*[]byte); ok {
			return *b
		}
		return make([]byte, longest+chunkPad)
	}
	errs := make([]error, len(chunks))
	parallel.Chunks(len(chunks), 1, workers, func(lo, hi int) {
		buf := getBuf()
		for j := lo; j < hi; j++ {
			b := buf[:chunks[j].len()]
			if errs[j] = readFullAt(ra, b, chunks[j].off); errs[j] != nil {
				return
			}
			chunks[j].lines = bytes.Count(b, []byte{'\n'})
			if b[len(b)-1] != '\n' {
				chunks[j].lines++
			}
			// A triple takes at least five bytes and, unless it ends the
			// input, a newline: a slot of (len+1)/6 fits every triple the
			// chunk can hold, so a flood of blank lines cannot inflate
			// the allocation past about twice the input.
			chunks[j].slot = min(chunks[j].lines, (len(b)+1)/6)
		}
		bufs.Put(&buf)
	})
	slots := 0
	for j := range chunks {
		if errs[j] != nil {
			return nil, errs[j]
		}
		chunks[j].line, chunks[j].first = line, slots
		line += chunks[j].lines
		slots += chunks[j].slot
	}
	entries := make([]sparse.Rating, slots)
	parallel.Chunks(len(chunks), 1, workers, func(lo, hi int) {
		buf := getBuf()
		for j := lo; j < hi; j++ {
			c := &chunks[j]
			b := buf[:c.len()+chunkPad]
			if errs[j] = readFullAt(ra, b[:c.len()], c.off); errs[j] != nil {
				return
			}
			clear(b[c.len():])
			c.parsed, errs[j] = parseChunk(b, entries[c.first:c.first+c.slot], h, c.line)
			if errs[j] != nil {
				return
			}
		}
		bufs.Put(&buf)
	})
	total := 0
	for j, c := range chunks {
		if errs[j] != nil {
			return nil, errs[j]
		}
		if c.first != total {
			copy(entries[total:], entries[c.first:c.first+c.parsed])
		}
		total += c.parsed
	}
	if total != h.nnz {
		return nil, errNNZMismatch(h.nnz, total)
	}
	return &sparse.COO{Rows: h.rows, Cols: h.cols, Entries: entries[:total]}, nil
}

// textHeader is the parsed "m n nnz" header line.
type textHeader struct{ rows, cols, nnz int }

// headerProbe is the chunk size readTextHeader reads the prologue in:
// the header is within the first few lines, so a full parse chunk would
// only fault in pages for nothing.
const headerProbe = 64 << 10

// readTextHeader reads the prologue of [off, end) up to and including the
// header line. It returns the header, the offset of the body after it,
// and the number of lines consumed.
func readTextHeader(ra io.ReaderAt, off, end int64) (h textHeader, body int64, lines int, err error) {
	var buf []byte
	for pos := off; pos < end; {
		next, err := cutAt(ra, pos, end, headerProbe)
		if err != nil {
			return h, 0, 0, err
		}
		buf = slices.Grow(buf[:0], int(next-pos))[:next-pos]
		if err := readFullAt(ra, buf, pos); err != nil {
			return h, 0, 0, err
		}
		hdr, used, n, found, err := parseTextHeader(buf, lines)
		lines += n
		if err != nil || found {
			return hdr, pos + int64(used), lines, err
		}
		pos = next
	}
	return h, 0, 0, fmt.Errorf("dataset: empty input")
}

// parseTextHeader scans buf, whose first line is line line0+1, for the
// "m n nnz" header, skipping comments and blank lines. It returns the
// header, the bytes and lines consumed, and whether the header was found
// before buf ran out.
func parseTextHeader(buf []byte, line0 int) (h textHeader, used, lines int, found bool, err error) {
	rest := buf
	for len(rest) > 0 {
		var line []byte
		line, rest = nextLine(rest)
		lines++
		if len(line) >= maxLineBytes {
			return h, 0, lines, false, bufio.ErrTooLong
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 || trimmed[0] == '%' || trimmed[0] == '#' {
			continue
		}
		f0, fr := nextField(trimmed)
		f1, fr := nextField(fr)
		f2, fr := nextField(fr)
		if extra, _ := nextField(fr); f2 == nil || extra != nil {
			return h, 0, lines, false, fmt.Errorf("dataset: line %d: header wants 'm n nnz', got %q", line0+lines, trimmed)
		}
		var e1, e2, e3 error
		h.rows, e1 = strconv.Atoi(bstr(f0))
		h.cols, e2 = strconv.Atoi(bstr(f1))
		h.nnz, e3 = strconv.Atoi(bstr(f2))
		if e1 != nil || e2 != nil || e3 != nil || h.rows < 0 || h.cols < 0 {
			return h, 0, lines, false, fmt.Errorf("dataset: line %d: bad header %q", line0+lines, trimmed)
		}
		return h, len(buf) - len(rest), lines, true, nil
	}
	return h, len(buf), lines, false, nil
}

// parseChunk parses one chunk of "u i r" lines into dst and returns the
// number of entries written. b holds the chunk followed by chunkPad zero
// bytes, and line is the number of lines before the chunk. Lines of the
// dominant shape go through the fused scanTriple; every other line takes
// the general path, whose field splitting and number parsing match
// strings.Fields and strconv exactly. The chunk stops at its first bad
// line, with the error the serial test oracle reports there.
func parseChunk(b []byte, dst []sparse.Rating, h textHeader, line int) (int, error) {
	n := 0
	end := len(b) - chunkPad
	for p := 0; p < end; {
		line++
		if u, i, v, next, ok := scanTriple(b, p, end); ok {
			if int(u) >= h.rows || int(i) >= h.cols {
				return n, fmt.Errorf("dataset: line %d: %v", line, sparse.CheckRange(u, i, h.rows, h.cols))
			}
			dst[n] = sparse.Rating{U: u, I: i, V: v}
			n++
			p = next
			continue
		}
		raw, rest := nextLine(b[p:end])
		p = end - len(rest)
		if len(raw) >= maxLineBytes {
			return n, bufio.ErrTooLong
		}
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 || trimmed[0] == '%' || trimmed[0] == '#' {
			continue
		}
		f0, f1, f2, exact, ascii := asciiFields3(trimmed)
		if !ascii {
			var fr []byte
			f0, fr = nextField(trimmed)
			f1, fr = nextField(fr)
			f2, fr = nextField(fr)
			extra, _ := nextField(fr)
			exact = f2 != nil && extra == nil
		}
		if !exact {
			return n, fmt.Errorf("dataset: line %d: want 'u i r', got %q", line, trimmed)
		}
		u, e1 := parseI32(f0)
		i, e2 := parseI32(f1)
		v, e3 := parseF32(f2)
		if e1 != nil || e2 != nil || e3 != nil || !finite(v) {
			return n, fmt.Errorf("dataset: line %d: bad triple %q", line, trimmed)
		}
		if err := sparse.CheckRange(u, i, h.rows, h.cols); err != nil {
			return n, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		dst[n] = sparse.Rating{U: u, I: i, V: v}
		n++
	}
	return n, nil
}

// Binary format: magic "HCMF", version u32, rows/cols u64, nnz u64, then
// nnz records of (u int32, i int32, v float32), little endian. ~3x smaller
// and far faster to load than the text form. Records move through 64 KiB
// blocks with batched binary.LittleEndian access, not per-record reads.

const (
	binaryMagic   = "HCMF"
	binaryVersion = 1

	recordSize = 12
	// ioWriteBlock is the block-I/O buffer size: 64 KiB rounded down to a
	// whole number of records (5461 records = 65532 bytes).
	ioWriteBlock = (64 << 10) / recordSize * recordSize
)

// ratingWireLayout reports whether sparse.Rating's in-memory layout is
// bit-identical to the on-disk record (little-endian u, i, v at offsets
// 0/4/8 in 12 bytes), which lets ReadBinary decode whole blocks with one
// copy instead of per-field shifts. False on big-endian hosts or if the
// struct layout ever changes; the per-record decode loop remains as the
// portable path.
var ratingWireLayout = func() bool {
	var x uint16 = 1
	littleEndian := *(*byte)(unsafe.Pointer(&x)) == 1
	var e sparse.Rating
	return littleEndian &&
		unsafe.Sizeof(e) == recordSize &&
		unsafe.Offsetof(e.U) == 0 && unsafe.Offsetof(e.I) == 4 && unsafe.Offsetof(e.V) == 8
}()

// WriteBinary writes the compact binary format through a 64 KiB block
// buffer: records are encoded with batched little-endian stores and
// flushed a block at a time.
func WriteBinary(w io.Writer, m *sparse.COO) error {
	buf := make([]byte, 0, ioWriteBlock)
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Cols))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.NNZ()))
	for _, e := range m.Entries {
		if len(buf)+recordSize > ioWriteBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		off := len(buf)
		buf = buf[:off+recordSize]
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(e.I))
		binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(e.V))
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses the compact binary format, pulling records through a
// 64 KiB block buffer instead of one 12-byte read per record. Accepted
// inputs and error messages are identical to a per-record reader's (the
// tests' oracle).
func ReadBinary(r io.Reader) (*sparse.COO, error) {
	rows, cols, nnz, err := readBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	rem, known := remainingBytes(r)
	m := sparse.NewCOO(rows, cols, binaryCap(nnz, rem, known))
	block := make([]byte, ioWriteBlock)
	var done uint64
	for done < nnz {
		want := int(min(nnz-done, uint64(len(block)/recordSize))) * recordSize
		n, err := io.ReadFull(r, block[:want])
		full := n / recordSize
		if ratingWireLayout && full > 0 {
			// The record bytes are exactly the in-memory layout of
			// sparse.Rating on little-endian hosts: bulk-copy the block into
			// the entries array, then check each decoded record.
			base := len(m.Entries)
			m.Entries = slices.Grow(m.Entries, full)[:base+full]
			dst := unsafe.Slice((*byte)(unsafe.Pointer(&m.Entries[base])), full*recordSize)
			copy(dst, block[:full*recordSize])
			for k, e := range m.Entries[base:] {
				if !recordOK(e, rows, cols) {
					return nil, fmt.Errorf("dataset: record %d: %v", done+uint64(k), recordError(e, rows, cols))
				}
			}
		} else {
			for k := 0; k < full; k++ {
				rec := block[k*recordSize : k*recordSize+recordSize]
				e := sparse.Rating{
					U: int32(binary.LittleEndian.Uint32(rec[0:])),
					I: int32(binary.LittleEndian.Uint32(rec[4:])),
					V: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
				}
				if !recordOK(e, rows, cols) {
					return nil, fmt.Errorf("dataset: record %d: %v", done+uint64(k), recordError(e, rows, cols))
				}
				m.Entries = append(m.Entries, e)
			}
		}
		if err != nil {
			// Normalise to what a per-record reader would have seen: the
			// record after the last complete one got either a partial read
			// (unexpected EOF) or nothing at all (EOF).
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if n%recordSize == 0 {
					err = io.EOF
				} else {
					err = io.ErrUnexpectedEOF
				}
			}
			return nil, fmt.Errorf("dataset: record %d: %w", done+uint64(full), err)
		}
		done += uint64(full)
	}
	return m, nil
}

// headerCapHint bounds the Entries capacity pre-allocated from an
// untrusted header, so a file declaring an absurd nnz cannot force a huge
// allocation before a single record is read.
const headerCapHint = 1 << 20

// recordOK is the check every binary record passes, COO.Validate's two
// conditions: coordinates inside the matrix and a finite rating. It
// inlines into the decode loops; recordError builds the error for a
// record that fails it.
func recordOK(e sparse.Rating, rows, cols int) bool {
	return uint(e.U) < uint(rows) && uint(e.I) < uint(cols) && finite(e.V)
}

func recordError(e sparse.Rating, rows, cols int) error {
	if err := sparse.CheckRange(e.U, e.I, rows, cols); err != nil {
		return err
	}
	return fmt.Errorf("non-finite rating %v", e.V)
}

// finite reports whether v is neither NaN nor infinite: v−v is 0 for
// every finite v and NaN otherwise. strconv parses "NaN" and "Inf", and a
// binary record can hold any bits, so the readers reject what
// COO.Validate would.
func finite(v float32) bool { return v-v == 0 }

// binaryCap is the Entries capacity to preallocate for a binary body that
// declares nnz records, where rem is the body's size in bytes if known:
// nnz when the body holds that many records, else as many as it holds;
// at most headerCapHint when the size is unknown. So a real file gets one
// exact-size allocation, and a header that declares more records than
// follow cannot force a huge one.
func binaryCap(nnz uint64, rem int64, known bool) int {
	if !known {
		return int(min(nnz, headerCapHint))
	}
	if rem < 0 {
		rem = 0
	}
	return int(min(nnz, uint64(rem)/recordSize))
}

// remainingBytes reports how many bytes r holds from its current offset
// to its end, when r can tell: readers with a Len (bytes.Reader,
// strings.Reader, bytes.Buffer) and regular files.
func remainingBytes(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len()), true
	case *os.File:
		off, size, ok := fileRange(v)
		return size - off, ok
	}
	return 0, false
}

// readBinaryHeader reads and validates the magic and fixed header.
func readBinaryHeader(r io.Reader) (rows, cols int, nnz uint64, err error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, 0, 0, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return 0, 0, 0, fmt.Errorf("dataset: bad magic %q", magic)
	}
	hdr := make([]byte, 4+8+8+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, fmt.Errorf("dataset: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return 0, 0, 0, fmt.Errorf("dataset: unsupported version %d", v)
	}
	rows = int(binary.LittleEndian.Uint64(hdr[4:]))
	cols = int(binary.LittleEndian.Uint64(hdr[12:]))
	nnz = binary.LittleEndian.Uint64(hdr[20:])
	if rows < 0 || cols < 0 || nnz > 1<<34 {
		return 0, 0, 0, fmt.Errorf("dataset: implausible header rows=%d cols=%d nnz=%d", rows, cols, nnz)
	}
	return rows, cols, nnz, nil
}
