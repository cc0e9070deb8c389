package mf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Model persistence: a trained factor model is the product HCC-MF exists
// to produce, so it needs a durable format. The layout is little-endian:
//
//	magic "HCMM" | version u32 | m u64 | n u64 | k u64 | P floats | Q floats

const (
	factorsMagic   = "HCMM"
	factorsVersion = 1
)

// WriteFactors serialises a plain factor model.
func WriteFactors(w io.Writer, f *Factors) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := writeHeader(bw, factorsVersion, f); err != nil {
		return err
	}
	if err := writeFloats(bw, f.P); err != nil {
		return err
	}
	if err := writeFloats(bw, f.Q); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadFactors deserialises a plain factor model.
func ReadFactors(r io.Reader) (*Factors, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	version, f, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if version != factorsVersion {
		return nil, fmt.Errorf("mf: model version %d is not a plain factor model", version)
	}
	if err := readFloats(br, f.P); err != nil {
		return nil, err
	}
	if err := readFloats(br, f.Q); err != nil {
		return nil, err
	}
	return f, f.Validate()
}

func writeHeader(w io.Writer, version uint32, f *Factors) error {
	if _, err := io.WriteString(w, factorsMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(f.M))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(f.N))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.K))
	_, err := w.Write(hdr)
	return err
}

func readHeader(r io.Reader) (uint32, *Factors, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, nil, fmt.Errorf("mf: reading magic: %w", err)
	}
	if string(magic) != factorsMagic {
		return 0, nil, fmt.Errorf("mf: bad model magic %q", magic)
	}
	hdr := make([]byte, 4+8+8+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("mf: reading header: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:])
	m := binary.LittleEndian.Uint64(hdr[4:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	k := binary.LittleEndian.Uint64(hdr[20:])
	const limit = 1 << 32
	if m == 0 || n == 0 || k == 0 || m > limit || n > limit || k > 4096 {
		return 0, nil, fmt.Errorf("mf: implausible model dims m=%d n=%d k=%d", m, n, k)
	}
	if m*k > limit || n*k > limit {
		return 0, nil, fmt.Errorf("mf: model too large: %d×%d, k=%d", m, n, k)
	}
	return version, NewFactors(int(m), int(n), int(k)), nil
}

func writeFloats(w io.Writer, v []float32) error {
	buf := make([]byte, 4*4096)
	for len(v) > 0 {
		chunk := len(v)
		if chunk > 4096 {
			chunk = 4096
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v[i]))
		}
		if _, err := w.Write(buf[:4*chunk]); err != nil {
			return err
		}
		v = v[chunk:]
	}
	return nil
}

func readFloats(r io.Reader, v []float32) error {
	buf := make([]byte, 4*4096)
	for len(v) > 0 {
		chunk := len(v)
		if chunk > 4096 {
			chunk = 4096
		}
		if _, err := io.ReadFull(r, buf[:4*chunk]); err != nil {
			return fmt.Errorf("mf: reading floats: %w", err)
		}
		for i := 0; i < chunk; i++ {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		v = v[chunk:]
	}
	return nil
}
