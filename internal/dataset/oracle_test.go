package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hccmf/internal/sparse"
)

// The serial readers below are the test oracles of the production
// readers: they define the two formats one line or one record at a time,
// and the equivalence tests and fuzz targets hold readTextAt and
// ReadBinary to their entries, entry order and error text byte for byte.

// readTextSerial is the serial reference parser of the text format. Its
// behaviour defines the format; the chunked pipeline must match it bit
// for bit.
func readTextSerial(r io.Reader) (*sparse.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var m *sparse.COO
	declaredNNZ := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if m == nil {
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: header wants 'm n nnz', got %q", lineNo, line)
			}
			rows, err1 := strconv.Atoi(fields[0])
			cols, err2 := strconv.Atoi(fields[1])
			nnz, err3 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 {
				return nil, fmt.Errorf("dataset: line %d: bad header %q", lineNo, line)
			}
			declaredNNZ = nnz
			m = sparse.NewCOO(rows, cols, 0)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("dataset: line %d: want 'u i r', got %q", lineNo, line)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 32)
		i, err2 := strconv.ParseInt(fields[1], 10, 32)
		v, err3 := strconv.ParseFloat(fields[2], 32)
		if err1 != nil || err2 != nil || err3 != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dataset: line %d: bad triple %q", lineNo, line)
		}
		if err := m.Append(int32(u), int32(i), float32(v)); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("dataset: empty input")
	}
	if m.NNZ() != declaredNNZ {
		return nil, errNNZMismatch(declaredNNZ, m.NNZ())
	}
	return m, nil
}

// ReadBinarySerial is the per-record reference reader of the binary
// format. It grows its entries as records arrive, so no header can make
// it allocate ahead of the bytes.
func ReadBinarySerial(r io.Reader) (*sparse.COO, error) {
	br := bufio.NewReader(r)
	rows, cols, nnz, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	m := sparse.NewCOO(rows, cols, 0)
	rec := make([]byte, recordSize)
	for c := uint64(0); c < nnz; c++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("dataset: record %d: %w", c, err)
		}
		u := int32(binary.LittleEndian.Uint32(rec[0:]))
		i := int32(binary.LittleEndian.Uint32(rec[4:]))
		v := math.Float32frombits(binary.LittleEndian.Uint32(rec[8:]))
		if err := m.Append(u, i, v); err != nil {
			return nil, fmt.Errorf("dataset: record %d: %v", c, err)
		}
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("dataset: record %d: non-finite rating %v", c, v)
		}
	}
	return m, nil
}
