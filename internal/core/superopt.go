package core

import "aa/internal/telemetry"

// SuperOpt is the super-optimal relaxation of an AA instance
// (Definition V.1): the optimal allocation of a single pooled knapsack of
// capacity m·C with per-thread caps C. Its total utility F̂ upper-bounds
// the optimal AA utility F* (Lemma V.2), and its allocations ĉ_i drive the
// linearization and both approximation algorithms.
type SuperOpt struct {
	// Alloc[i] is ĉ_i, thread i's super-optimal allocation.
	Alloc []float64
	// Value[i] is f_i(ĉ_i).
	Value []float64
	// Total is F̂ = Σ f_i(ĉ_i).
	Total float64
	// Lambda is the water-filling price the λ-search converged to
	// (0 for the trivial all-caps case). The solve cache persists it so
	// warm-start re-solves of nearby instances can seed their λ-search
	// from it instead of searching from scratch.
	Lambda float64
}

// SuperOptimal computes the super-optimal allocation by water-filling
// (a bracketed λ-search) over the pooled budget m·C, the structure of
// the O(n (log mC)²) algorithm of Galil cited by the paper. The result owns
// its slices; only the λ-search scratch is borrowed from the workspace
// pool.
func SuperOptimal(in *Instance) SuperOpt {
	w := GetWorkspace()
	defer PutWorkspace(w)
	return superOptimalWith(w.capFuncs(in.Threads, in.C), &w.allocSc, nil, nil, float64(in.M)*in.C, 0, nil, telemetry.SpanContext{})
}

// Linearized is the two-segment utility g_i from Equation 1 of the paper:
// a linear ramp from (0,0) to (ĉ_i, f_i(ĉ_i)), flat afterwards. It lower
// bounds f_i (Lemma V.4) and makes the greedy analysis tractable.
//
// When ĉ_i = 0 the ramp degenerates: g is the constant f_i(0) and the
// thread is "full" with zero resource anywhere (slope 0).
type Linearized struct {
	UHat float64 // f_i(ĉ_i), the plateau value
	CHat float64 // ĉ_i, the super-optimal allocation
	C    float64 // domain bound (server capacity)
}

// Value returns g(x).
func (g Linearized) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if g.CHat <= 0 || x >= g.CHat {
		return g.UHat
	}
	return g.UHat * x / g.CHat
}

// Deriv returns the ramp slope before ĉ and 0 after.
func (g Linearized) Deriv(x float64) float64 {
	if g.CHat <= 0 || x >= g.CHat || x >= g.C {
		return 0
	}
	return g.UHat / g.CHat
}

// Cap returns the domain bound.
func (g Linearized) Cap() float64 { return g.C }

// Slope returns g's ramp slope g(ĉ)/ĉ, or 0 for the degenerate ĉ = 0
// case (such a thread needs no resource at all).
func (g Linearized) Slope() float64 {
	if g.CHat <= 0 {
		return 0
	}
	return g.UHat / g.CHat
}

// InverseDeriv returns ĉ when the ramp slope is at least lambda, else 0.
func (g Linearized) InverseDeriv(lambda float64) float64 {
	if g.CHat > 0 && g.Slope() >= lambda {
		return g.CHat
	}
	return 0
}

// Linearize builds the linearized utilities g_1..g_n for an instance from
// its super-optimal allocation (§V-A).
func Linearize(in *Instance, so SuperOpt) []Linearized {
	gs := make([]Linearized, in.N())
	for i := range gs {
		gs[i] = Linearized{UHat: so.Value[i], CHat: so.Alloc[i], C: in.C}
	}
	if telemetry.Enabled() {
		metricLinearizeCalls.Inc()
	}
	return gs
}
