package fp16

import "testing"

// forEachTier runs fn as a subtest once per codec tier this process can
// run: "go", the portable loops, always, then "f16c" when the CPUID gate
// chose the F16C conversions. It forces the tier through useF16C and
// restores the gate's choice afterwards, so both tiers are checked in one
// process on an F16C host. Callers must not run in parallel.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	gate := useF16C
	defer func() { useF16C = gate }()
	tiers := []bool{false}
	if gate {
		tiers = append(tiers, true)
	}
	for _, f16c := range tiers {
		useF16C = f16c
		name := "go"
		if f16c {
			name = "f16c"
		}
		t.Run(name, fn)
	}
}

// spans are the sub-slices [off, off+n) the tier tests convert besides
// their whole inputs: every length 0–17 at every start offset 0–7, so the
// F16C tier sees empty input, inputs shorter than one 8-value block, one
// and two whole blocks, and every tail of 1–7 values, at every alignment.
var spans = func() (s [][2]int) {
	for off := 0; off < 8; off++ {
		for n := 0; n <= 17; n++ {
			s = append(s, [2]int{off, n})
		}
	}
	return s
}()
