// Package rng provides deterministic, splittable pseudo-random number
// generation for the autotuning experiments.
//
// Every stochastic component of the library draws from a named stream so
// that experiments are bit-reproducible: the same (seed, name) pair always
// yields the same sequence, independent of what any other stream consumed.
// The generator is xoshiro256**, seeded through SplitMix64 as recommended
// by its authors.
package rng

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to expand seeds into generator state and as a stable
// scrambler for Hash64.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. It is not safe for concurrent use;
// use Split to derive independent generators for concurrent work.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state,
	// which is the one absorbing state of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewNamed returns a generator whose stream is determined jointly by the
// seed and a hierarchical name such as "fig3/lu/rsb". Distinct names give
// independent streams for the same seed.
func NewNamed(seed uint64, name string) *RNG {
	return New(seed ^ Hash64(name))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new generator that is statistically independent of the
// parent. The parent's state advances, so successive Splits differ.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// SplitNamed derives an independent generator keyed by name without
// advancing the parent, so stream identity depends only on (parent
// creation, name).
func (r *RNG) SplitNamed(name string) *RNG {
	h := Hash64(name)
	return New(r.s[0] ^ rotl(r.s[2], 13) ^ h)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method with a
// rejection step to remove modulo bias: a draw is rejected when the low
// half of its product with n is below 2^64 mod n. That threshold is
// below n, so it is computed, with its 64-bit division, only for the rare
// draw whose low half is below n itself.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate using the polar
// Marsaglia method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*float64(r.Float64()) - 1
		v := 2*float64(r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal variate with the given location and
// scale of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with what Perm(len(p)) returns, making the same draws.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle performs a Fisher–Yates shuffle over n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n).
// It switches between Floyd's algorithm (small k) and a partial
// Fisher–Yates (large k) for efficiency. The result order is random.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*4 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	// Floyd's algorithm: guarantees k distinct values with exactly k draws.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Choose returns one uniform element index weighted by w (w >= 0, not all
// zero). Used by the genetic algorithm's selection and the bandit.
func (r *RNG) Choose(w []float64) int {
	total := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			panic("rng: Choose with negative or NaN weight")
		}
		total += v
	}
	if total == 0 {
		return r.Intn(len(w))
	}
	target := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}

// Hash64 returns a stable 64-bit hash of s, additionally scrambled through
// SplitMix64 so similar strings map to well-separated values.
func Hash64(s string) uint64 { return NewHasher().String(s).Sum64() }

// Hasher computes Hash64 of a string written in pieces, without building
// the string: Hash64(a+b) == NewHasher().String(a).String(b).Sum64().
type Hasher struct{ h uint64 }

// FNV-1a 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewHasher returns a Hasher over the empty string.
func NewHasher() Hasher { return Hasher{fnvOffset64} }

// String appends s to the hashed string.
func (h Hasher) String(s string) Hasher {
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime64
	}
	return h
}

// Bytes appends b to the hashed string.
func (h Hasher) Bytes(b []byte) Hasher {
	for _, c := range b {
		h.h ^= uint64(c)
		h.h *= fnvPrime64
	}
	return h
}

// Sum64 returns Hash64 of everything written so far.
func (h Hasher) Sum64() uint64 {
	v := h.h
	return splitMix64(&v)
}

// HashBytes64 is Hash64 over raw bytes.
func HashBytes64(b []byte) uint64 { return NewHasher().Bytes(b).Sum64() }

// HashInts64 hashes a sequence of ints together with a string tag. It is
// the stable noise key used by the machine model: the noise applied to a
// configuration depends only on (tag, values).
func HashInts64(tag string, vals []int) uint64 {
	h := NewHasher().String(tag)
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h = h.Bytes(buf[:])
	}
	return h.Sum64()
}
