package mf

import (
	"bytes"
	"strings"
	"testing"

	"hccmf/internal/sparse"
)

func TestFactorsRoundTrip(t *testing.T) {
	f := NewFactorsInit(37, 23, 8, 3.7, sparse.NewRand(5))
	var buf bytes.Buffer
	if err := WriteFactors(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFactors(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M != f.M || back.N != f.N || back.K != f.K {
		t.Fatalf("dims changed: %dx%d k=%d", back.M, back.N, back.K)
	}
	for i := range f.P {
		if back.P[i] != f.P[i] {
			t.Fatalf("P[%d] changed", i)
		}
	}
	for i := range f.Q {
		if back.Q[i] != f.Q[i] {
			t.Fatalf("Q[%d] changed", i)
		}
	}
}

func TestReadFactorsRejectsCorruption(t *testing.T) {
	f := NewFactorsInit(5, 5, 2, 3, sparse.NewRand(1))
	var buf bytes.Buffer
	if err := WriteFactors(&buf, f); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := ReadFactors(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadFactors(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadFactors(bytes.NewReader(valid[:20])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := ReadFactors(bytes.NewReader(valid[:len(valid)-5])); err == nil {
		t.Error("truncated floats accepted")
	}
	// A non-plain version (2 was the retired biased format) is refused.
	other := append([]byte(nil), valid...)
	other[4] = 2
	if _, err := ReadFactors(bytes.NewReader(other)); err == nil {
		t.Error("version 2 model accepted as plain")
	}
	// Implausible dims rejected.
	hacked := append([]byte(nil), valid...)
	for i := 8; i < 16; i++ {
		hacked[i] = 0xff
	}
	if _, err := ReadFactors(bytes.NewReader(hacked)); err == nil {
		t.Error("implausible dims accepted")
	}
}

func TestPersistRejectsNaNModels(t *testing.T) {
	f := NewFactorsInit(4, 4, 2, 3, sparse.NewRand(1))
	var buf bytes.Buffer
	if err := WriteFactors(&buf, f); err != nil {
		t.Fatal(err)
	}
	// Corrupt one float to NaN in the payload region.
	raw := buf.Bytes()
	off := len(raw) - 4
	raw[off], raw[off+1], raw[off+2], raw[off+3] = 0x00, 0x00, 0xc0, 0x7f
	if _, err := ReadFactors(bytes.NewReader(raw)); err == nil {
		t.Error("NaN payload accepted")
	}
}
