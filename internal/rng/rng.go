// Package rng provides a small, deterministic, splittable random number
// generator used throughout hetlb.
//
// Reproducibility is a first-class requirement for the experiments in this
// repository: every figure of the paper is regenerated from a fixed seed, and
// concurrent components (replications in the harness, epoch schedules of the
// sharded engine) each need an independent stream that does not depend on
// scheduling order. The generator is based on SplitMix64 for seeding and
// xoshiro256** for the stream, both public-domain algorithms with good
// statistical quality and trivial implementations.
package rng

import "math/bits"

// RNG is a deterministic pseudo random number generator. It is NOT safe for
// concurrent use; use Split to derive independent generators for concurrent
// components.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a 64-bit seed into the 256-bit xoshiro state, following the
// recommendation of the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place to the exact state New(seed) would
// produce, discarding whatever stream position r held. It allocates nothing,
// which is why the sharded gossip engine re-keys one long-lived coordinator
// generator per epoch (with a DeriveSeed-keyed seed) instead of constructing
// a fresh Substream: the epoch schedule stays a pure function of
// (seed, epoch) while the steady-state step path stays allocation-free.
func (r *RNG) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// The all-zero state is invalid for xoshiro; the SplitMix64 expansion
	// cannot produce it, but keep a guard for clarity and safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Uint64 returns the next value of the stream (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically independent
// from r's. It advances r. Splitting is how the message-passing runtime
// derives its per-machine generators, so that results do not depend on
// event order.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// DeriveSeed deterministically mixes a base seed with a key path and returns
// a substream seed. Unlike Split, it is a pure function: the result depends
// only on (seed, keys), never on how many other substreams were derived
// before it. This is the primitive behind keyed replication streams — the
// i-th replication of an experiment uses DeriveSeed(expSeed, i), so its
// result is a function of its index alone and is identical no matter in
// which order (or on how many workers) the replications execute.
func DeriveSeed(seed uint64, keys ...uint64) uint64 {
	st := seed
	out := splitmix64(&st)
	for _, k := range keys {
		// Fold each key into the running state through an odd multiplier
		// (golden ratio) so that adjacent keys land in distant states, then
		// re-scramble with SplitMix64.
		st = out ^ (k*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909)
		out = splitmix64(&st)
	}
	return out
}

// Substream returns a generator seeded with DeriveSeed(seed, keys...): the
// keyed, order-independent counterpart of Split.
func Substream(seed uint64, keys ...uint64) *RNG {
	return New(DeriveSeed(seed, keys...))
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Int64n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, uint64(n))
		if lo >= uint64(n) || lo >= -uint64(n)%uint64(n) {
			return int64(hi)
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int64n(int64(n)))
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Int64n(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)) — the
// allocation-free form of Perm. It performs exactly the same generator draws
// as Perm of the same length, so the two are interchangeable without
// perturbing downstream streams.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		k := r.Intn(i + 1)
		s[i], s[k] = s[k], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, k int)) {
	for i := n - 1; i > 0; i-- {
		k := r.Intn(i + 1)
		swap(i, k)
	}
}

// Pick returns a uniform element index in [0, n) different from excluded.
// It panics if n < 2. This is the "select a random peer other than myself"
// primitive of all the gossip protocols.
func (r *RNG) Pick(n, excluded int) int {
	if n < 2 {
		panic("rng: Pick needs at least two candidates")
	}
	v := r.Intn(n - 1)
	if v >= excluded {
		v++
	}
	return v
}
