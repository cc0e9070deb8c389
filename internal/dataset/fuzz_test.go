package dataset

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"hccmf/internal/sparse"
)

// Fuzz targets double as robustness tests: `go test` runs the seed corpus,
// `go test -fuzz=FuzzReadText` explores further. The property under fuzz
// is "never panic, and anything accepted round-trips cleanly".

func FuzzReadText(f *testing.F) {
	f.Add("2 2 1\n0 1 3.5\n")
	f.Add("% comment\n3 4 2\n0 0 1\n2 3 5\n")
	f.Add("")
	f.Add("1 1\n")
	f.Add("a b c\n")
	f.Add("2 2 1\n9 9 9\n")
	f.Add("9999999 9999999 1\n0 0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		// Anything accepted must survive a write/read round trip.
		var buf bytes.Buffer
		if err := WriteText(&buf, m); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NNZ() != m.NNZ() || back.Rows != m.Rows || back.Cols != m.Cols {
			t.Fatalf("round trip changed shape")
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and truncations/corruptions of it.
	m := smallMatrix()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:4])
	f.Add([]byte("HCMF"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[5] ^= 0xff
	f.Add(corrupt)
	f.Add(binaryHeader(1 << 34)) // header only, declaring the most entries it may
	f.Fuzz(func(t *testing.T, input []byte) {
		m, err := ReadBinary(bytes.NewReader(input))
		want, werr := ReadBinarySerial(bytes.NewReader(input))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("block err %v, per-record err %v", err, werr)
		}
		if err != nil {
			return
		}
		// Records carry any float bits, NaNs included, so compare bits.
		same := func(a, b sparse.Rating) bool {
			return a.U == b.U && a.I == b.I && math.Float32bits(a.V) == math.Float32bits(b.V)
		}
		if m.Rows != want.Rows || m.Cols != want.Cols || !slices.EqualFunc(m.Entries, want.Entries, same) {
			t.Fatalf("block reader disagrees with the per-record reader")
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
	})
}

// FuzzSplitChunks checks the text reader's chunk cutter, cutChunks over
// a bytes.Reader, for arbitrary inputs and chunk targets: chunks
// concatenate back to the input, no chunk is empty, and every chunk
// except the last ends at a newline (so no line is ever split across
// workers).
func FuzzSplitChunks(f *testing.F) {
	f.Add([]byte("a\nb\nc\n"), 2)
	f.Add([]byte("no newline"), 3)
	f.Add([]byte(""), 1)
	f.Add([]byte("\n\n\n"), 1)
	f.Add(bytes.Repeat([]byte("0 1 2.5\n"), 64), 16)
	f.Fuzz(func(t *testing.T, input []byte, target int) {
		if target > 1<<24 {
			target = 1 << 24
		}
		checkChunks(t, input, target, cutBytes(t, input, target))
	})
}

// FuzzReadTextEquivalence holds the chunked parser to the serial oracle
// on arbitrary inputs: same accept/reject decision, same error
// text, same entries. It compares twice: with a tiny chunk size, so even
// short fuzz inputs span multiple chunks, and at the production chunk
// size with the lines after the first repeated past scanTriple's 16-byte
// lookahead, so the scanner reads real bytes of the following lines
// rather than a chunk's zero padding.
func FuzzReadTextEquivalence(f *testing.F) {
	f.Add("2 2 1\n0 1 3.5\n")
	f.Add("% c\n3 4 2\n0 0 1\n2 3 5\n")
	f.Add("2 2 9\n0 0 1\n")
	f.Add("2 2 1\nbad line\n")
	f.Add("")
	// Negative header dims, with no triple and with one.
	f.Add("-2 3 0\n")
	f.Add("-2 3 1\n0 0 1\n")
	// Separators and line ends scanTriple leaves to the general path.
	f.Add("2 2 2\r\n0 1 3.5\r\n1 0 4\r\n")
	f.Add("2 2 2\n0\t1\t3.5\n1\t\t0 4\n")
	f.Add("2 2 2\n  0 1 3.5\n \t1 0 4\n")
	// Ids of 8 and more digits; a rating "3." and a rating of 17 digits.
	f.Add("123456790 87654322 2\n12345678 87654321 2.5\n123456789 1 3\n")
	f.Add("2 2 2\n0 1 3.\n1 1 12345678.123456789\n")
	// Comment and blank lines between triples leave gaps to compact.
	f.Add("3 3 3\n0 0 1\n\n# c\n1 1 2\n%x\n\n\n2 2 3\n")
	f.Add("2 2 1\n0 1 3.5")
	// A line of 1 MiB, too long for either parser, and a comment line just
	// short of that, each across a chunk boundary.
	f.Add("2 2 2\n0 1 3.5\n" + strings.Repeat("7", maxLineBytes) + "\n1 1 1\n")
	f.Add("2 2 2\n0 1 3.5\n#" + strings.Repeat(" ", maxLineBytes-2) + "\n1 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		equivalent(t, input, 7)
		first, rest, _ := strings.Cut(input, "\n")
		if rest == "" {
			return
		}
		long := first + "\n" + strings.Repeat(rest+"\n", 2+chunkPad/len(rest))
		equivalent(t, long, ioChunkSize)
	})
}

// equivalent fails t unless the chunked reader at chunkSize and the serial
// oracle agree on input.
func equivalent(t *testing.T, input string, chunkSize int) {
	t.Helper()
	sm, serr := readTextSerial(strings.NewReader(input))
	pm, perr := readTextChunked([]byte(input), 4, chunkSize)
	if (serr == nil) != (perr == nil) {
		t.Fatalf("chunk %d: serial err %v, parallel err %v", chunkSize, serr, perr)
	}
	if serr != nil {
		if serr.Error() != perr.Error() {
			t.Fatalf("chunk %d: error text differs: %q vs %q", chunkSize, serr, perr)
		}
		return
	}
	if sm.Rows != pm.Rows || sm.Cols != pm.Cols || len(sm.Entries) != len(pm.Entries) {
		t.Fatalf("chunk %d: shape differs: %dx%d/%d vs %dx%d/%d", chunkSize,
			sm.Rows, sm.Cols, len(sm.Entries), pm.Rows, pm.Cols, len(pm.Entries))
	}
	for i := range sm.Entries {
		if sm.Entries[i] != pm.Entries[i] {
			t.Fatalf("chunk %d: entry %d differs: %v vs %v", chunkSize, i, sm.Entries[i], pm.Entries[i])
		}
	}
}

func FuzzReadMovieLensCSV(f *testing.F) {
	f.Add("userId,movieId,rating,timestamp\n1,296,5.0,1147880044\n")
	f.Add("userId,movieId,rating\nx,y,z\n")
	f.Add("")
	f.Add("userId,movieId,rating,timestamp\n-1,-2,3.0,0\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, maps, err := ReadMovieLensCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		if len(maps.Users) != m.Rows || len(maps.Items) != m.Cols {
			t.Fatalf("id maps inconsistent with matrix dims")
		}
	})
}
