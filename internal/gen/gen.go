// Package gen implements the paper's synthetic workload generator
// (IPDPS'16 §VII) and a few extra utility families for the application
// substrates.
//
// For each thread the paper draws two values v and w from a distribution
// H conditioned on w ≤ v, then builds a smooth concave utility through
// the three points (0, 0), (C/2, v), (C, v+w) with Matlab's PCHIP. The
// condition w ≤ v makes the secant slopes nonincreasing (2v/C then 2w/C),
// so the data is concave. Four choices of H are evaluated: uniform,
// normal(1,1), power law(α) and a two-point discrete distribution
// parameterized by γ (probability of the low value) and θ = h/ℓ.
package gen

import (
	"fmt"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Dist draws the nonnegative values v used to shape utility curves.
type Dist interface {
	// Sample returns one nonnegative value.
	Sample(r *rng.Rand) float64
	// Name identifies the distribution in reports.
	Name() string
}

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws one value.
func (u Uniform) Sample(r *rng.Rand) float64 { return r.Uniform(u.Lo, u.Hi) }

// Name implements Dist.
func (u Uniform) Name() string { return fmt.Sprintf("uniform[%g,%g)", u.Lo, u.Hi) }

// DefaultUniform is the unit-interval uniform used for Figure 1(a).
var DefaultUniform = Uniform{Lo: 0, Hi: 1}

// Normal draws from a normal distribution truncated to positive values,
// matching the paper's normal(mean=1, stddev=1) utility draws
// (utilities must be nonnegative).
type Normal struct {
	Mean, Stddev float64
}

// Sample draws one positive value.
func (n Normal) Sample(r *rng.Rand) float64 { return r.PositiveNormal(n.Mean, n.Stddev) }

// Name implements Dist.
func (n Normal) Name() string { return fmt.Sprintf("normal(%g,%g)+", n.Mean, n.Stddev) }

// DefaultNormal is the paper's normal(1, 1) used for Figure 1(b).
var DefaultNormal = Normal{Mean: 1, Stddev: 1}

// PowerLaw draws from p(x) ∝ x^(-Alpha) on [Xmin, ∞) — the heavy-tailed
// distribution of Figure 2, which occasionally produces threads with very
// large maximum utility that must be placed carefully.
type PowerLaw struct {
	Alpha float64 // tail exponent, > 1; paper uses 2 in Fig. 2(a)
	Xmin  float64 // scale, > 0; 1 unless stated otherwise
}

// Sample draws one value.
func (p PowerLaw) Sample(r *rng.Rand) float64 { return r.PowerLaw(p.Alpha, p.Xmin) }

// Name implements Dist.
func (p PowerLaw) Name() string { return fmt.Sprintf("powerlaw(α=%g)", p.Alpha) }

// Discrete is the paper's two-point distribution of Figure 3: value ℓ
// with probability γ, else h = θ·ℓ.
type Discrete struct {
	L     float64 // low value ℓ, > 0
	Gamma float64 // P(ℓ), in [0, 1]
	Theta float64 // h/ℓ ratio, >= 1
}

// Sample draws ℓ or h = θℓ.
func (d Discrete) Sample(r *rng.Rand) float64 {
	return r.TwoPoint(d.L, d.Theta*d.L, d.Gamma)
}

// Name implements Dist.
func (d Discrete) Name() string {
	return fmt.Sprintf("discrete(γ=%g,θ=%g)", d.Gamma, d.Theta)
}

// Thread generates one utility function over capacity c by the paper's
// three-point PCHIP construction: draw v, w from dist with w ≤ v
// (order statistics of two draws), interpolate (0,0), (c/2, v), (c, v+w).
func Thread(dist Dist, c float64, r *rng.Rand) (utility.Func, error) {
	v := dist.Sample(r)
	w := dist.Sample(r)
	if w > v {
		v, w = w, v
	}
	return utility.NewSampled(
		[]float64{0, c / 2, c},
		[]float64{0, v, v + w},
	)
}

// Instance generates an AA instance with m servers of capacity c and n
// threads drawn independently from dist.
func Instance(dist Dist, m int, c float64, n int, r *rng.Rand) (*core.Instance, error) {
	threads := make([]utility.Func, n)
	for i := range threads {
		f, err := Thread(dist, c, r)
		if err != nil {
			return nil, fmt.Errorf("gen: thread %d: %w", i, err)
		}
		threads[i] = f
	}
	return &core.Instance{M: m, C: c, Threads: threads}, nil
}
