package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"hccmf/internal/sparse"
)

func newTestRand(seed uint64) *sparse.Rand { return sparse.NewRand(seed) }

func smallMatrix() *sparse.COO {
	m := sparse.NewCOO(3, 4, 4)
	m.Add(0, 1, 4.5)
	m.Add(1, 3, 2)
	m.Add(2, 0, 5)
	m.Add(2, 2, 1.5)
	return m
}

func TestTextRoundTrip(t *testing.T) {
	m := smallMatrix()
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
		t.Fatalf("shape changed: %dx%d/%d", back.Rows, back.Cols, back.NNZ())
	}
	for i := range m.Entries {
		if back.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %v != %v", i, back.Entries[i], m.Entries[i])
		}
	}
}

func TestReadTextSkipsComments(t *testing.T) {
	in := "% comment\n# another\n2 2 1\n\n0 1 3.5\n"
	m, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 || m.Entries[0].V != 3.5 {
		t.Fatalf("parsed %+v", m.Entries)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"1 2\n",              // short header
		"a b c\n",            // non-numeric header
		"2 2 1\n0 1\n",       // short triple
		"2 2 1\nx y z\n",     // non-numeric triple
		"2 2 1\n5 0 1\n",     // out of range row
		"2 2 1\n0 1 2 3 4\n", // long triple
		"% only a comment\n", // no header
		"2 2 2\n0 1 3\n",     // header declares more entries than present
		"2 2 0\n0 1 3\n",     // header declares fewer entries than present
		"2 2 1\n0 1 NaN\n",   // non-finite rating
		"2 2 1\n0 1 -Inf\n",  // non-finite rating
		"0 -1 0\n",           // negative dimension
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := smallMatrix()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.Cols != m.Cols {
		t.Fatalf("shape changed")
	}
	for i := range m.Entries {
		if back.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %v != %v", i, back.Entries[i], m.Entries[i])
		}
	}
}

func TestBinaryRoundTripLarge(t *testing.T) {
	spec := Netflix.MustScaled(0.001)
	d := MustGenerate(spec, 11)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d.Train); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != d.Train.NNZ() {
		t.Fatalf("nnz %d != %d", back.NNZ(), d.Train.NNZ())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadBinary(strings.NewReader("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid magic, truncated header.
	if _, err := ReadBinary(strings.NewReader("HCMF\x01\x00")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Truncated records.
	m := smallMatrix()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated records accepted")
	}
	// A record whose rating is NaN: the records' bits are not checked by
	// the decode, so the reader must reject it itself.
	nan := sparse.NewCOO(2, 2, 1)
	nan.Add(0, 1, float32(math.NaN()))
	buf.Reset()
	if err := WriteBinary(&buf, nan); err != nil {
		t.Fatal(err)
	}
	const want = "dataset: record 0: non-finite rating NaN"
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil || err.Error() != want {
		t.Fatalf("NaN rating: err %v, want %q", err, want)
	}
}

func TestReadBinaryRejectsWrongVersion(t *testing.T) {
	m := smallMatrix()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestTextBinaryAgree(t *testing.T) {
	spec := MovieLens20M.MustScaled(0.002)
	d := MustGenerate(spec, 21)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, d.Train); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, d.Train); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadText(&tb)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bb)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.NNZ() != fromBin.NNZ() {
		t.Fatalf("text %d entries, binary %d", fromText.NNZ(), fromBin.NNZ())
	}
	for i := range fromText.Entries {
		a, b := fromText.Entries[i], fromBin.Entries[i]
		if a.U != b.U || a.I != b.I {
			t.Fatalf("entry %d coordinates differ: %v vs %v", i, a, b)
		}
		// Text goes through %g so only ~7 significant digits survive.
		if diff := a.V - b.V; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("entry %d values differ: %v vs %v", i, a.V, b.V)
		}
	}
}

// binaryHeader returns a binary header, with no records after it, that
// declares a 2×2 matrix of nnz entries.
func binaryHeader(nnz uint64) []byte {
	b := []byte(binaryMagic)
	b = binary.LittleEndian.AppendUint32(b, binaryVersion)
	b = binary.LittleEndian.AppendUint64(b, 2)
	b = binary.LittleEndian.AppendUint64(b, 2)
	return binary.LittleEndian.AppendUint64(b, nnz)
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// onlyReader hides every method of r but Read, so the readers cannot
// learn its size.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestReadBinaryHeaderAllocBounded(t *testing.T) {
	// A header that declares 2^34 records and ends there must fail on the
	// first record without first allocating room for all of them.
	in := binaryHeader(1 << 34)
	const want = "dataset: record 0: EOF"
	for _, tc := range []struct {
		name  string
		r     func() io.Reader
		limit uint64
	}{
		{"sized", func() io.Reader { return bytes.NewReader(in) }, 4 << 20},
		// A source of unknown size gets at most headerCapHint entries.
		{"unsized", func() io.Reader { return onlyReader{bytes.NewReader(in)} }, headerCapHint*recordSize + 4<<20},
	} {
		var err error
		got := allocated(func() { _, err = ReadBinary(tc.r()) })
		if err == nil || err.Error() != want {
			t.Fatalf("%s: err %v, want %q", tc.name, err, want)
		}
		if got > tc.limit {
			t.Fatalf("%s: allocated %d bytes, want <= %d", tc.name, got, tc.limit)
		}
	}
}
