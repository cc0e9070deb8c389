package costmodel

import "hccmf/internal/obs"

// MintClock builds a wall-clock reader inside a simulated-platform
// package — exactly the leak the injected-observer design prevents.
func MintClock() func() float64 {
	return obs.WallClock() // want "obs.WallClock mints a wall clock"
}

// UseInjected is the sanctioned pattern: the observer arrives pre-wired
// with its clock, and the sim package only calls nil-safe methods on it.
func UseInjected(o *obs.Observer) {
	span := o.Span(obs.ProcReal, "w0", "ps", "pull", nil)
	_ = span
}
