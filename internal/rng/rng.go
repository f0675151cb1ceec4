// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used by the paper's workload
// generator (IPDPS'16 §VII): uniform, normal, power law and two-point
// discrete, plus a few extras used by the application substrates.
//
// The generator is xoshiro256** seeded through SplitMix64. Each Rand is a
// plain value with no global or shared state, so experiments can derive an
// independent stream per trial (see Split) and produce bit-identical
// results regardless of goroutine scheduling or trial ordering.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not valid; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, which guarantees
// the internal state is never all-zero.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	return r
}

// splitMix64 advances the SplitMix64 state and returns (next state, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Split derives a statistically independent generator keyed by id. Two
// Splits of the same parent with different ids produce unrelated streams;
// the parent's own stream is not advanced.
func (r *Rand) Split(id uint64) *Rand {
	// Mix the parent state with the id through SplitMix64.
	h := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] >> 1) ^ r.s[3]
	_, mixed := splitMix64(h ^ (id * 0x9E3779B97F4A7C15))
	return New(mixed)
}

// SplitPath derives a generator from a hierarchical path of ids, e.g.
// base.SplitPath(point, trial) for trial number `trial` of sweep point
// `point`. It is exactly Split applied left to right, packaged so
// callers fanning work out across goroutines can name a stream by its
// coordinates in one call; like Split it leaves the parent untouched.
func (r *Rand) SplitPath(ids ...uint64) *Rand {
	out := r
	for _, id := range ids {
		out = out.Split(id)
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster; a
	// simple rejection loop keeps the implementation obviously unbiased.
	bound := uint64(n)
	threshold := -bound % bound // 2^64 mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation, using the Marsaglia polar method.
func (r *Rand) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// PositiveNormal returns a normal variate conditioned to be strictly
// positive (rejection sampling), matching the paper's use of normal(1,1)
// draws as nonnegative utility values.
func (r *Rand) PositiveNormal(mean, stddev float64) float64 {
	for {
		v := r.Normal(mean, stddev)
		if v > 0 {
			return v
		}
	}
}

// PowerLaw returns a variate with density proportional to x^(-alpha) on
// [xmin, ∞), alpha > 1, via inverse-transform sampling.
func (r *Rand) PowerLaw(alpha, xmin float64) float64 {
	if alpha <= 1 {
		panic("rng: PowerLaw requires alpha > 1")
	}
	if xmin <= 0 {
		panic("rng: PowerLaw requires xmin > 0")
	}
	u := r.Float64()
	return xmin * math.Pow(1-u, -1/(alpha-1))
}

// Exponential returns an exponential variate with the given rate.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential requires rate > 0")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson variate with the given mean. Knuth's
// multiplication method is used for small means and a normal
// approximation (rounded, clamped at 0) for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TwoPoint returns lo with probability pLo, else hi — the paper's discrete
// distribution with P(ℓ) = γ and h = θℓ.
func (r *Rand) TwoPoint(lo, hi, pLo float64) float64 {
	if r.Float64() < pLo {
		return lo
	}
	return hi
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples ranks 1..n with probability proportional to rank^(-s),
// using a precomputed cumulative table and binary search. Suitable for the
// trace generators where n is the number of distinct addresses.
type Zipf struct {
	cdf []float64
	n   int
}

// NewZipf precomputes a Zipf(s) sampler over ranks [1, n].
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: Zipf requires n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, n: n}
}

// Sample draws a rank in [1, n].
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
