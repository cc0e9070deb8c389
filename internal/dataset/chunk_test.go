package dataset

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"hccmf/internal/sparse"
)

// The fast scalar parsers must be bit-identical to strconv on everything
// they accept. These tests hammer them far harder than the fixtures: the
// float path in particular must survive the double-rounding corner, so it
// is checked against ParseFloat(s, 32) over random float32 renderings and
// random digit strings.

func TestParseFloat32FastMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		got, ok := parseFloat32Fast([]byte(s))
		if !ok {
			return // fallback path; strconv handles it by construction
		}
		want, err := strconv.ParseFloat(s, 32)
		if err != nil {
			t.Fatalf("fast path accepted %q, strconv rejects: %v", s, err)
		}
		if math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: fast %v (%#x), strconv %v (%#x)",
				s, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
		}
	}

	// Shortest representations of random float32s across many magnitudes.
	rng := sparse.NewRand(41)
	for i := 0; i < 500_000; i++ {
		f := float32(rng.Float64()) * float32pow10[rng.Intn(11)]
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
		check(strconv.FormatFloat(float64(f), 'f', rng.Intn(10), 32))
	}
	// Random raw digit strings, point in a random spot.
	buf := make([]byte, 0, 20)
	for i := 0; i < 500_000; i++ {
		buf = buf[:0]
		n := 1 + rng.Intn(17)
		dot := rng.Intn(n + 1)
		for j := 0; j < n; j++ {
			if j == dot {
				buf = append(buf, '.')
			}
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		check(string(buf))
	}
	// Hand-picked shapes: midpoint-adjacent, long zeros, degenerate forms.
	for _, s := range []string{
		"0", "0.0", "1", "4.5", "3.4028235", "0.000001", "16777216", "16777217",
		"8388608", "8388607", "9999999999999999", "1.00000017", "2.0000002",
		"0.1", "0.2", "0.3", "123456789012345", "000000000000001", "1.", ".5",
		"1..2", "", "-1", "+1", "1e5", "inf", "NaN", "0x1p4",
	} {
		check(s)
	}
}

func TestParseDigitsMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "7", "042", "999999999", "1000000000", "2147483647", "2147483648",
		"", "-3", "+3", " 3", "3 ", "12a", "999999999999999999", "9223372036854775807",
	} {
		b := []byte(s)
		want32, werr := strconv.ParseInt(s, 10, 32)
		got32, gerr := parseI32(b)
		if (werr == nil) != (gerr == nil) || (werr == nil && got32 != int32(want32)) {
			t.Fatalf("parseI32(%q) = %d,%v; strconv = %d,%v", s, got32, gerr, want32, werr)
		}
	}
}

func TestASCIIFields3MatchesNextField(t *testing.T) {
	for _, s := range []string{
		"a b c", "a  b\tc", "a b", "a", "", "a b c d", "a b c ", " a b c",
		"1 2 3.5", "x\vy\fz", "a b c d", "π 2 3", "a b c",
	} {
		in := []byte(s)
		f0, f1, f2, exact, ascii := asciiFields3(in)
		var fr []byte
		w0, fr := nextField(in)
		w1, fr := nextField(fr)
		w2, fr := nextField(fr)
		extra, _ := nextField(fr)
		wantExact := w2 != nil && extra == nil
		if !ascii {
			continue // caller falls back to nextField; nothing to compare
		}
		if exact != wantExact {
			t.Fatalf("%q: exact %v, want %v", s, exact, wantExact)
		}
		if string(f0) != string(w0) || string(f1) != string(w1) || string(f2) != string(w2) {
			t.Fatalf("%q: fields %q,%q,%q want %q,%q,%q", s, f0, f1, f2, w0, w1, w2)
		}
	}
}

// TestSWARDigitsMatchStrconv holds scanTriple's word-at-a-time digit
// helpers to a byte loop and strconv: digitRun must stop at the first
// non-digit whatever byte it is and whatever follows it, and swarDigits
// must give the value of every run of 1 to 8 digits.
func TestSWARDigitsMatchStrconv(t *testing.T) {
	rng := sparse.NewRand(43)
	var b [8]byte
	for j := 0; j <= 8; j++ {
		for c := 0; c < 256; c++ {
			for trial := 0; trial < 4; trial++ {
				for x := range b {
					switch {
					case x < j:
						b[x] = byte('0' + rng.Intn(10))
					case x == j:
						b[x] = byte(c)
					default:
						b[x] = byte(rng.Intn(256))
					}
				}
				want := 0
				for want < 8 && b[want] >= '0' && b[want] <= '9' {
					want++
				}
				w := binary.LittleEndian.Uint64(b[:])
				k := digitRun(w)
				if k != want {
					t.Fatalf("digitRun(%q) = %d, want %d", b, k, want)
				}
				if k == 0 {
					continue
				}
				v, err := strconv.ParseUint(string(b[:k]), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				if got := swarDigits(w, k); got != v {
					t.Fatalf("swarDigits(%q, %d) = %d, want %d", b, k, got, v)
				}
			}
		}
	}
}
