// Package timing provides the deterministic random-number source and the
// inter-reference time model used when generating traces.
//
// The paper measured the distribution of the number of cycles between
// consecutive load/store instructions with Spa (fig. 4b) and then, during
// source-level trace extraction, drew each entry's time gap from that
// distribution. The gap is stored in the trace entry so that repeated
// simulations of the same trace are identical. This package reproduces that
// scheme with a fixed, documented distribution and a seedable deterministic
// generator (no dependence on math/rand so results never change across Go
// releases).
package timing

// RNG is a xorshift64* pseudo-random generator. It is deliberately tiny,
// fast and fully deterministic for a given seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is replaced by a
// fixed non-zero constant because the xorshift state must never be zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("timing: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
