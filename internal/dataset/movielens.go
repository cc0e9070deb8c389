package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hccmf/internal/sparse"
)

// MovieLens loaders: the reproduction generates ML-20m-shaped synthetic
// data by default, but users with the real archives can train on them
// directly. Two formats are supported:
//
//   - ratings.csv (ML-20m/25m): header "userId,movieId,rating,timestamp",
//     comma-separated.
//   - u.data (ML-100k): "user \t item \t rating \t timestamp".
//
// MovieLens ids are sparse and 1-based; the loader densifies them and
// returns the id maps so predictions can be translated back.
//
// Each loader reads its input once, one line at a time, and assigns dense
// indexes in first-appearance input order. No benchmark workload reads
// MovieLens, so the loaders stay serial.

// IDMaps records the original-id ↔ dense-index correspondence of a loaded
// dataset.
type IDMaps struct {
	// UserIndex maps original user id → dense row.
	UserIndex map[int64]int32
	// ItemIndex maps original item id → dense column.
	ItemIndex map[int64]int32
	// Users and Items invert the maps: Users[row] = original user id.
	Users []int64
	Items []int64
}

// ReadMovieLensCSV parses a ratings.csv stream.
func ReadMovieLensCSV(r io.Reader) (*sparse.COO, *IDMaps, error) {
	return readMovieLensSerial(r, ',', true)
}

// ReadMovieLensUData parses a u.data stream.
func ReadMovieLensUData(r io.Reader) (*sparse.COO, *IDMaps, error) {
	return readMovieLensSerial(r, '\t', false)
}

// readMovieLensSerial is the one MovieLens loader: a bufio.Scanner walk
// whose 1 MiB line limit and error text the tests pin.
func readMovieLensSerial(r io.Reader, sep rune, hasHeader bool) (*sparse.COO, *IDMaps, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	maps := &IDMaps{
		UserIndex: make(map[int64]int32),
		ItemIndex: make(map[int64]int32),
	}
	type triple struct {
		u, i int32
		v    float32
	}
	var triples []triple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if hasHeader && lineNo == 1 {
			if !strings.Contains(strings.ToLower(line), "userid") {
				return nil, nil, fmt.Errorf("dataset: line 1: expected ratings.csv header, got %q", line)
			}
			continue
		}
		fields := splitSep(line, sep)
		if len(fields) < 3 {
			return nil, nil, fmt.Errorf("dataset: line %d: want ≥3 fields, got %q", lineNo, line)
		}
		uid, err1 := strconv.ParseInt(fields[0], 10, 64)
		iid, err2 := strconv.ParseInt(fields[1], 10, 64)
		rating, err3 := strconv.ParseFloat(fields[2], 32)
		if err1 != nil || err2 != nil || err3 != nil || !finite(float32(rating)) {
			return nil, nil, fmt.Errorf("dataset: line %d: bad record %q", lineNo, line)
		}
		triples = append(triples, triple{
			u: maps.denseUser(uid),
			i: maps.denseItem(iid),
			v: float32(rating),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(triples) == 0 {
		return nil, nil, fmt.Errorf("dataset: no ratings found")
	}
	m := sparse.NewCOO(len(maps.Users), len(maps.Items), len(triples))
	for _, t := range triples {
		m.Add(t.u, t.i, t.v)
	}
	return m, maps, nil
}

func splitSep(line string, sep rune) []string {
	if sep == '\t' {
		return strings.Fields(line) // u.data sometimes uses spaces
	}
	return strings.Split(line, string(sep))
}

func (m *IDMaps) denseUser(id int64) int32 {
	if idx, ok := m.UserIndex[id]; ok {
		return idx
	}
	idx := int32(len(m.Users))
	m.UserIndex[id] = idx
	m.Users = append(m.Users, id)
	return idx
}

func (m *IDMaps) denseItem(id int64) int32 {
	if idx, ok := m.ItemIndex[id]; ok {
		return idx
	}
	idx := int32(len(m.Items))
	m.ItemIndex[id] = idx
	m.Items = append(m.Items, id)
	return idx
}
