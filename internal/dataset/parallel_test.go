package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hccmf/internal/sparse"
)

// The chunked text pipeline's contract is byte-identical behaviour with
// the serial oracle (oracle_test.go): same entries in the same order and
// the same error text at the same line numbers, regardless of where chunk
// boundaries fall. These tests drive readTextAt with tiny chunk sizes so
// that multi-chunk splits, malformed lines mid-chunk, and inputs smaller
// than one chunk are all exercised even on small fixtures.

// readTextChunked runs the chunked text pipeline over buf with the given
// worker count and chunk size.
func readTextChunked(buf []byte, workers, chunkSize int) (*sparse.COO, error) {
	return readTextAt(bytes.NewReader(buf), 0, int64(len(buf)), workers, chunkSize)
}

func textFixture(t *testing.T) []byte {
	t.Helper()
	spec := Netflix.MustScaled(0.0005)
	d := MustGenerate(spec, 5)
	var buf bytes.Buffer
	if err := WriteText(&buf, d.Train); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cutBytes cuts in with cutChunks over a bytes.Reader and returns the
// chunks' bytes.
func cutBytes(t testing.TB, in []byte, target int) [][]byte {
	t.Helper()
	chunks, err := cutChunks(bytes.NewReader(in), 0, int64(len(in)), target)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(chunks))
	for k, c := range chunks {
		out[k] = in[c.off:c.end]
	}
	return out
}

// checkChunks fails t unless chunks, cut from in at target, keep the
// three invariants of the text reader's split: they concatenate to the
// input, no chunk is empty, and every chunk but the last ends at '\n' —
// unless a line of maxLineBytes or more crosses the cut, which cutAt
// cuts at exactly target+maxLineBytes bytes.
func checkChunks(t testing.TB, in []byte, target int, chunks [][]byte) {
	t.Helper()
	var cat []byte
	for k, c := range chunks {
		if len(c) == 0 {
			t.Fatalf("target %d: empty chunk %d of %q", target, k, in)
		}
		if k < len(chunks)-1 && c[len(c)-1] != '\n' && len(c) != max(target, 1)+maxLineBytes {
			t.Fatalf("target %d: chunk %d of %q does not end at a newline: %q", target, k, in, c)
		}
		cat = append(cat, c...)
	}
	if !bytes.Equal(cat, in) {
		t.Fatalf("target %d: concatenation mismatch: %q != %q", target, cat, in)
	}
}

func TestSplitChunksProperties(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte(""),
		[]byte("\n"),
		[]byte("no newline at all"),
		[]byte("a\nb\nc\n"),
		[]byte("a\nb\nc"), // unterminated final line
		bytes.Repeat([]byte("line of text\n"), 100),
		append(bytes.Repeat([]byte("x"), 50), '\n'), // one long line
	}
	for _, in := range inputs {
		for _, target := range []int{1, 2, 7, 16, 1 << 20} {
			checkChunks(t, in, target, cutBytes(t, in, target))
		}
	}
}

func TestReadTextParallelEquivalence(t *testing.T) {
	text := textFixture(t)
	want, err := readTextSerial(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes: smaller than a line, a handful of lines, larger than
	// the whole input (single chunk).
	for _, chunkSize := range []int{3, 64, 4096, len(text) + 1} {
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := readTextChunked(text, workers, chunkSize)
			if err != nil {
				t.Fatalf("chunk %d workers %d: %v", chunkSize, workers, err)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("chunk %d: shape %dx%d, want %dx%d", chunkSize, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			if !reflect.DeepEqual(got.Entries, want.Entries) {
				t.Fatalf("chunk %d workers %d: entries differ", chunkSize, workers)
			}
		}
	}
	// The public entry point agrees too, on one worker as on several.
	for _, workers := range []int{1, 4} {
		got, err := ReadTextWorkers(bytes.NewReader(text), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Entries, want.Entries) {
			t.Fatalf("ReadTextWorkers(%d) disagrees with serial", workers)
		}
	}
}

func TestReadTextParallelErrorsMatchSerial(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"1 2\n",                                 // short header
		"a b c\n",                               // non-numeric header
		"2 2 1\n0 1\n",                          // short triple
		"2 2 1\nx y z\n",                        // non-numeric triple
		"2 2 1\n5 0 1\n",                        // out-of-range row
		"2 2 1\n0 1 2 3 4\n",                    // long triple
		"% only a comment\n",                    // no header
		"2 2 2\n0 1 3\n",                        // header nnz too large
		"2 2 0\n0 1 3\n",                        // header nnz too small
		"2 2 1\n0 1 3\n0 0 1\n0 1 2\n",          // extra triples
		"% c\n\n2 2 3\n0 0 1\n0 1 bad\n1 1 2\n", // malformed mid-stream
		"3 3 4\n0 0 1\n1 1 1\n2 2 1\n9 9 9\n",   // range error on last line
		"2 2 1\n\n\n# c\n0 1 3.5\n",             // accepted: blank/comment noise
		"2 2 1\n0 1 NaN\n",                      // non-finite rating
	}
	for _, in := range cases {
		sm, serr := readTextSerial(strings.NewReader(in))
		for _, chunkSize := range []int{2, 5, 1 << 20} {
			pm, perr := readTextChunked([]byte(in), 4, chunkSize)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%q chunk %d: serial err %v, parallel err %v", in, chunkSize, serr, perr)
			}
			if serr != nil {
				if serr.Error() != perr.Error() {
					t.Fatalf("%q chunk %d: error text differs:\n serial:   %q\n parallel: %q",
						in, chunkSize, serr, perr)
				}
				continue
			}
			if !reflect.DeepEqual(sm.Entries, pm.Entries) {
				t.Fatalf("%q chunk %d: entries differ", in, chunkSize)
			}
		}
	}
}

func TestReadTextValidatesHeaderNNZ(t *testing.T) {
	// The satellite fix: a header whose nnz disagrees with the actual
	// triple count must be a descriptive error on every path.
	in := "2 2 3\n0 1 2.5\n"
	want := `dataset: header declares 3 entries, file has 1`
	if _, err := readTextSerial(strings.NewReader(in)); err == nil || err.Error() != want {
		t.Fatalf("serial: err %v, want %q", err, want)
	}
	if _, err := readTextChunked([]byte(in), 4, 4); err == nil || err.Error() != want {
		t.Fatalf("parallel: err %v, want %q", err, want)
	}
	if _, err := ReadText(strings.NewReader(in)); err == nil || err.Error() != want {
		t.Fatalf("ReadText: err %v, want %q", err, want)
	}
}

func TestReadBinaryBlockEquivalence(t *testing.T) {
	spec := Netflix.MustScaled(0.0005)
	d := MustGenerate(spec, 23)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d.Train); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := ReadBinarySerial(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatal("block reader disagrees with per-record reader")
	}

	// Truncations: mid-record, at a record boundary, inside the header.
	for _, cut := range []int{len(data) - 5, len(data) - recordSize, len(data) - 2*recordSize - 7, 30, 10, 3} {
		_, serr := ReadBinarySerial(bytes.NewReader(data[:cut]))
		_, perr := ReadBinary(bytes.NewReader(data[:cut]))
		if serr == nil || perr == nil {
			t.Fatalf("cut %d: truncation accepted (serial %v, block %v)", cut, serr, perr)
		}
		if serr.Error() != perr.Error() {
			t.Fatalf("cut %d: error text differs:\n serial: %q\n block:  %q", cut, serr, perr)
		}
	}
}

func TestWriteTextMatchesFmtRendering(t *testing.T) {
	m := sparse.NewCOO(10, 10, 0)
	m.Add(0, 1, 4.5)
	m.Add(3, 2, -0.125)
	m.Add(9, 9, 1e-7)
	m.Add(5, 0, 3)
	m.Add(7, 4, 2.0000002) // needs float32 shortest-representation digits
	var got bytes.Buffer
	if err := WriteText(&got, m); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for _, e := range m.Entries {
		fmt.Fprintf(&want, "%d %d %g\n", e.U, e.I, e.V)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteText drifted from the fmt rendering:\n got: %q\nwant: %q", got.String(), want.String())
	}
}

func TestWriteBinaryBlockBoundary(t *testing.T) {
	// A matrix whose record stream crosses several 64 KiB blocks and ends
	// exactly at a block boundary must round-trip.
	perBlock := ioWriteBlock / recordSize
	n := perBlock*2 - 1 // header consumes part of block 1, so stream ends mid/edge
	m := sparse.NewCOO(1000, 1000, n)
	rng := sparse.NewRand(3)
	for i := 0; i < n; i++ {
		m.Add(int32(rng.Intn(1000)), int32(rng.Intn(1000)), rng.Float32())
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Entries, m.Entries) {
		t.Fatal("multi-block round trip changed entries")
	}
}

// TestReadTextSourcesAgree holds the three ways text reaches the chunked
// pipeline to one result: a regular file and a bytes.Reader are read in
// place from their current offset, any other reader is read into memory
// first. Each gives the same COO, or the same error, as the serial
// reader.
func TestReadTextSourcesAgree(t *testing.T) {
	inputs := []string{
		string(textFixture(t)),
		"2 2 1\n0 1 3.5",
		"3 3 3\n0 0 1\n\n# c\n1 1 2\n%x\n\n2 2 3\n",
		"2 2 1\n0 1\n",
		"2 2 1\n5 0 1\n",
		"2 2 2\n0 1 3\n",
		"",
	}
	const prefix = "skipped\n" // read off every source before the parse
	dir := t.TempDir()
	for k, in := range inputs {
		want, werr := readTextSerial(strings.NewReader(in))
		path := filepath.Join(dir, fmt.Sprintf("in%d.txt", k))
		if err := os.WriteFile(path, []byte(prefix+in), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sources := map[string]io.Reader{
			"file":   f,
			"bytes":  bytes.NewReader([]byte(prefix + in)),
			"reader": onlyReader{strings.NewReader(prefix + in)},
		}
		for name, r := range sources {
			if _, err := io.ReadFull(r, make([]byte, len(prefix))); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTextWorkers(r, 4)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("input %d, %s: err %v, want %v", k, name, err, werr)
			}
			if err == nil && (got.Rows != want.Rows || got.Cols != want.Cols || !reflect.DeepEqual(got.Entries, want.Entries)) {
				t.Fatalf("input %d, %s: COO differs from the serial reader's", k, name)
			}
		}
	}
}

// TestReadTextAllocBounded checks that a flood of blank lines, each of
// which the count pass must give a slot until it knows better, costs at
// most about twice the input: a slot is capped at what the chunk's bytes
// can hold, (len+1)/6 entries of 12 bytes.
func TestReadTextAllocBounded(t *testing.T) {
	in := []byte("2 2 1\n0 1 3.5\n" + strings.Repeat("\n", 6<<20))
	workers := runtime.GOMAXPROCS(0)
	var m *sparse.COO
	var err error
	got := allocated(func() { m, err = ReadTextWorkers(bytes.NewReader(in), max(workers, 2)) })
	if err != nil || m.NNZ() != 1 {
		t.Fatalf("got %v, %v", m, err)
	}
	// Beyond the slots, each worker holds one buffer of at most two chunks.
	limit := uint64(2*len(in) + (max(workers, 2)+1)*2*ioChunkSize)
	if got > limit {
		t.Fatalf("allocated %d bytes for %d bytes of input, want <= %d", got, len(in), limit)
	}
}
