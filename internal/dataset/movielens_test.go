package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hccmf/internal/sparse"
)

const csvSample = `userId,movieId,rating,timestamp
1,296,5.0,1147880044
1,306,3.5,1147868817
2,296,4.0,1147868828
3,5952,4.0,1147869100
`

const uDataSample = "196\t242\t3\t881250949\n186\t302\t3\t891717742\n196\t302\t4\t881250949\n"

func TestReadMovieLensCSV(t *testing.T) {
	m, maps, err := ReadMovieLensCSV(strings.NewReader(csvSample))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("shape = %dx%d/%d", m.Rows, m.Cols, m.NNZ())
	}
	// User 1 and user 2 both rated movie 296 — same dense column.
	col296 := maps.ItemIndex[296]
	seen := 0
	for _, e := range m.Entries {
		if e.I == col296 {
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("movie 296 has %d ratings, want 2", seen)
	}
	if maps.Users[maps.UserIndex[3]] != 3 {
		t.Fatal("id maps do not invert")
	}
	if m.Entries[0].V != 5.0 {
		t.Fatalf("rating = %v", m.Entries[0].V)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMovieLensUData(t *testing.T) {
	m, maps, err := ReadMovieLensUData(strings.NewReader(uDataSample))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.NNZ() != 3 {
		t.Fatalf("shape = %dx%d/%d", m.Rows, m.Cols, m.NNZ())
	}
	if _, ok := maps.UserIndex[196]; !ok {
		t.Fatal("user 196 missing")
	}
}

// TestReadMovieLensErrors pins each loader's error text, line numbers
// included, on malformed input.
func TestReadMovieLensErrors(t *testing.T) {
	checkMovieLensErrors(t, []movieLensErrCase{
		{mlCSV, "", "dataset: no ratings found"},
		{mlCSV, "not,a,header\n1,2,3.0,4\n", `dataset: line 1: expected ratings.csv header, got "not,a,header"`},
		{mlCSV, "userId,movieId,rating\na,b\n", `dataset: line 2: want ≥3 fields, got "a,b"`},
		{mlCSV, "userId,movieId,rating\nx,y,z\n", `dataset: line 2: bad record "x,y,z"`},
		{mlCSV, "userId,movieId,rating\n1,2,NaN\n", `dataset: line 2: bad record "1,2,NaN"`},
		{mlUData, "1 2\n", `dataset: line 1: want ≥3 fields, got "1 2"`},
	})
}

// TestMovieLensParallelErrorsMatchSerial pins the error text on the ten
// inputs a parallel loader was once checked against the serial one with;
// each string is the one both loaders returned.
func TestMovieLensParallelErrorsMatchSerial(t *testing.T) {
	checkMovieLensErrors(t, []movieLensErrCase{
		{mlCSV, "", "dataset: no ratings found"},
		{mlCSV, "not a header\n1,2,3\n", `dataset: line 1: expected ratings.csv header, got "not a header"`},
		{mlCSV, "userId,movieId,rating\n", "dataset: no ratings found"}, // header only
		{mlCSV, "userId,movieId,rating\n1,2\n", `dataset: line 2: want ≥3 fields, got "1,2"`},
		{mlCSV, "userId,movieId,rating\nx,y,z\n", `dataset: line 2: bad record "x,y,z"`},
		{mlCSV, "userId,movieId,rating\n1,2,3\n4,5,bad\n6,7,1\n", `dataset: line 3: bad record "4,5,bad"`},
		// A blank line 1 is skipped, so the header on line 2 is a record.
		{mlCSV, "\nuserId,movieId,rating\n1,2,3\n", `dataset: line 2: bad record "userId,movieId,rating"`},
		{mlUData, "1\t2\n", `dataset: line 1: want ≥3 fields, got "1\t2"`},
		{mlUData, "1\t2\t3\n4\tbad\t5\n", `dataset: line 2: bad record "4\tbad\t5"`},
		{mlUData, "", "dataset: no ratings found"},
	})
}

var mlCSV, mlUData = ReadMovieLensCSV, ReadMovieLensUData

type movieLensErrCase struct {
	read func(io.Reader) (*sparse.COO, *IDMaps, error)
	in   string
	want string
}

func checkMovieLensErrors(t *testing.T, cases []movieLensErrCase) {
	t.Helper()
	for _, tc := range cases {
		_, _, err := tc.read(strings.NewReader(tc.in))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: err %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestReadMovieLensSkipsBlankLines(t *testing.T) {
	in := "userId,movieId,rating,timestamp\n\n1,10,4.0,0\n\n"
	m, _, err := ReadMovieLensCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestReadMovieLensDensification(t *testing.T) {
	// Ids are huge and sparse; dense indexes must stay compact.
	in := "userId,movieId,rating,timestamp\n900000,7777777,3.0,0\n900001,7777777,2.0,0\n"
	m, maps, err := ReadMovieLensCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 1 {
		t.Fatalf("densification failed: %dx%d", m.Rows, m.Cols)
	}
	if maps.Items[0] != 7777777 {
		t.Fatal("item map wrong")
	}
}

func mlCSVFixture() []byte {
	// Sparse, shuffled, repeating ids exercise the densification order.
	var buf bytes.Buffer
	buf.WriteString("userId,movieId,rating,timestamp\n")
	rng := sparse.NewRand(13)
	for i := 0; i < 4000; i++ {
		u := 1000 + rng.Intn(200)*7
		it := 50 + rng.Intn(300)*3
		fmt.Fprintf(&buf, "%d,%d,%.1f,%d\n", u, it, 0.5+float64(rng.Intn(9))*0.5, i)
	}
	return buf.Bytes()
}

func mlUDataFixture() []byte {
	var buf bytes.Buffer
	rng := sparse.NewRand(17)
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&buf, "%d\t%d\t%d\t%d\n", 1+rng.Intn(50), 1+rng.Intn(80), 1+rng.Intn(5), i)
	}
	return buf.Bytes()
}

// mlHash is the sha256 of a MovieLens load: the shape, every entry in
// order, and both id maps in dense order.
func mlHash(m *sparse.COO, maps *IDMaps) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, e := range m.Entries {
		put(uint64(uint32(e.U)))
		put(uint64(uint32(e.I)))
		put(uint64(math.Float32bits(e.V)))
	}
	for _, id := range maps.Users {
		put(uint64(id))
		put(uint64(maps.UserIndex[id]))
	}
	for _, id := range maps.Items {
		put(uint64(id))
		put(uint64(maps.ItemIndex[id]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMovieLensCSVParallelEquivalence pins the ratings.csv fixture's
// COO and id maps to the hash a parallel loader and this one agreed on
// when both existed.
func TestMovieLensCSVParallelEquivalence(t *testing.T) {
	checkMovieLensHash(t, ReadMovieLensCSV, mlCSVFixture(), "e668e2a779651c3a5fd17d17fb8e2d7486956a46fd9603d1b8d537813987a067")
}

// TestMovieLensUDataParallelEquivalence does the same for the u.data
// fixture.
func TestMovieLensUDataParallelEquivalence(t *testing.T) {
	checkMovieLensHash(t, ReadMovieLensUData, mlUDataFixture(), "ebaa6d038af6328852c3aad894a7ac587811f101e7df93dd297de9055069fb3d")
}

func checkMovieLensHash(t *testing.T, read func(io.Reader) (*sparse.COO, *IDMaps, error), in []byte, want string) {
	t.Helper()
	m, maps, err := read(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := mlHash(m, maps); got != want {
		t.Fatalf("load hashes to %s, want %s", got, want)
	}
}
