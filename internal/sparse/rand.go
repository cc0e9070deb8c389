package sparse

import "math"

// Rand is a small, allocation-free deterministic PRNG (xoshiro256**)
// shared by the sparse and dataset packages. The training pipeline needs
// reproducible shuffles and initialisations across runs and across worker
// counts, which math/rand's global state cannot guarantee, and the module
// is restricted to the standard library, so we carry our own generator.
type Rand struct {
	s [4]uint64
}

// NewRand seeds a generator from a single 64-bit seed using splitmix64, as
// recommended by the xoshiro authors; any seed (including 0) is valid.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	out, s0, s1, s2, s3 := xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// xoshiro is the generator's one step: it returns the output of state
// (s0, s1, s2, s3) and the next state. The state goes in and out as
// scalars so that a loop drawing many values can keep it in registers,
// which the compiler does for no array.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		// lint:invariant mirrors math/rand's own contract: a zero bound is API misuse on the generator hot path.
		panic("sparse: Uint64n(0)")
	}
	// Lemire's nearly-divisionless method with a rejection loop to remove
	// modulo bias.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Float32 returns a uniform value in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// FillFloat32 sets dst[i] = scale * (offset + r.Float32()) for each i in
// order, with the same values and the same end state as that loop. The
// generator state stays in local variables for the whole fill rather than
// going through memory on every draw.
func (r *Rand) FillFloat32(dst []float32, offset, scale float32) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var out uint64
	for i := range dst {
		out, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		dst[i] = scale * (offset + float32(float32(out>>40)*(1.0/(1<<24))))
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		// lint:invariant mirrors math/rand.Intn's contract: non-positive n is API misuse.
		panic("sparse: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// transform (only one of the pair is used; throughput is not critical for
// initialisation paths).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
