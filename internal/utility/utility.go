// Package utility models thread utility functions.
//
// The paper (IPDPS'16) characterizes each thread by a nonnegative,
// nondecreasing, concave function f : [0, C] → ℝ≥0 giving its performance
// (throughput, hit rate, revenue, ...) as a function of the resource it is
// allocated. This package defines the Func interface the solvers consume,
// a library of closed-form concave families observed in practice (linear,
// capped linear, power, logarithmic, saturating exponential, M/M/1-style),
// sampled curves backed by shape-preserving interpolation, combinators,
// and numeric validators for the three model assumptions.
package utility

import (
	"errors"
	"fmt"
	"math"

	"aa/internal/interp"
)

// Func is a thread utility function on the domain [0, Cap()].
//
// Implementations must be nonnegative, nondecreasing and concave on the
// domain; Validate checks these properties numerically. Value and Deriv
// must accept any x (callers may probe slightly outside the domain during
// bisection) and clamp it to [0, Cap()].
type Func interface {
	// Value returns f(x) with x clamped to [0, Cap()].
	Value(x float64) float64
	// Deriv returns the right derivative f'(x) (one-sided at the
	// boundary). For concave f it is nonincreasing in x.
	Deriv(x float64) float64
	// Cap returns the domain upper bound, i.e. the server capacity C the
	// function was defined for.
	Cap() float64
}

// DerivInverter is an optional fast path: given a marginal value lambda,
// InverseDeriv returns the largest x in [0, Cap()] with Deriv(x) >= lambda
// (0 if none). The λ-search allocator uses it when available and falls
// back to InverseDeriv (the package function) otherwise.
type DerivInverter interface {
	InverseDeriv(lambda float64) float64
}

// clamp restricts x to [0, c].
func clamp(x, c float64) float64 {
	if x < 0 {
		return 0
	}
	if x > c {
		return c
	}
	return x
}

// ---------------------------------------------------------------------------
// Closed-form families
// ---------------------------------------------------------------------------

// Linear is f(x) = Slope·x, the simplest concave utility.
type Linear struct {
	Slope float64 // must be >= 0
	C     float64 // domain bound
}

// Value returns Slope·x.
func (l Linear) Value(x float64) float64 { return l.Slope * clamp(x, l.C) }

// Deriv returns Slope inside the domain and 0 beyond it.
func (l Linear) Deriv(x float64) float64 {
	if x >= l.C {
		return 0
	}
	return l.Slope
}

// Cap returns the domain bound.
func (l Linear) Cap() float64 { return l.C }

// InverseDeriv returns C when lambda <= Slope, else 0.
func (l Linear) InverseDeriv(lambda float64) float64 {
	if lambda <= l.Slope {
		return l.C
	}
	return 0
}

// CappedLinear is f(x) = Slope·min(x, Knee): linear up to the knee, flat
// after. This is the family used in the paper's NP-hardness reduction
// (Thm IV.1, with Slope = 1 and Knee = c_i) and its tightness example
// (Thm V.17).
type CappedLinear struct {
	Slope float64 // must be >= 0
	Knee  float64 // saturation point, in [0, C]
	C     float64 // domain bound
}

// Value returns Slope·min(x, Knee).
func (f CappedLinear) Value(x float64) float64 {
	x = clamp(x, f.C)
	if x > f.Knee {
		x = f.Knee
	}
	return f.Slope * x
}

// Deriv returns Slope before the knee and 0 after.
func (f CappedLinear) Deriv(x float64) float64 {
	if x < f.Knee && x < f.C {
		return f.Slope
	}
	return 0
}

// Cap returns the domain bound.
func (f CappedLinear) Cap() float64 { return f.C }

// InverseDeriv returns Knee when lambda <= Slope, else 0.
func (f CappedLinear) InverseDeriv(lambda float64) float64 {
	if lambda <= f.Slope {
		return clamp(f.Knee, f.C)
	}
	return 0
}

// Power is f(x) = Scale·x^Beta with Beta in (0, 1], the family used in the
// paper's introduction to show fixed-request allocation can be a factor
// n^(1-Beta) from optimal.
type Power struct {
	Scale float64 // must be >= 0
	Beta  float64 // in (0, 1]
	C     float64 // domain bound
}

// Value returns Scale·x^Beta.
func (p Power) Value(x float64) float64 {
	x = clamp(x, p.C)
	if x == 0 {
		return 0
	}
	return p.Scale * math.Pow(x, p.Beta)
}

// Deriv returns Scale·Beta·x^(Beta-1); at x = 0 it is +Inf for Beta < 1.
func (p Power) Deriv(x float64) float64 {
	if x >= p.C {
		return 0
	}
	if x <= 0 {
		if p.Beta < 1 {
			return math.Inf(1)
		}
		return p.Scale
	}
	return p.Scale * p.Beta * math.Pow(x, p.Beta-1)
}

// Cap returns the domain bound.
func (p Power) Cap() float64 { return p.C }

// InverseDeriv solves Scale·Beta·x^(Beta-1) = lambda in closed form.
func (p Power) InverseDeriv(lambda float64) float64 {
	if lambda <= 0 {
		return p.C
	}
	if p.Beta == 1 {
		if lambda <= p.Scale {
			return p.C
		}
		return 0
	}
	x := math.Pow(lambda/(p.Scale*p.Beta), 1/(p.Beta-1))
	return clamp(x, p.C)
}

// Log is f(x) = Scale·ln(1 + x/Shift), a slowly-saturating concave curve
// typical of cache hit rates over large working sets.
type Log struct {
	Scale float64 // must be >= 0
	Shift float64 // must be > 0
	C     float64 // domain bound
}

// Value returns Scale·ln(1 + x/Shift).
func (l Log) Value(x float64) float64 {
	return l.Scale * math.Log1p(clamp(x, l.C)/l.Shift)
}

// Deriv returns Scale / (Shift + x).
func (l Log) Deriv(x float64) float64 {
	if x >= l.C {
		return 0
	}
	return l.Scale / (l.Shift + clamp(x, l.C))
}

// Cap returns the domain bound.
func (l Log) Cap() float64 { return l.C }

// InverseDeriv solves Scale/(Shift+x) = lambda in closed form.
func (l Log) InverseDeriv(lambda float64) float64 {
	if lambda <= 0 {
		return l.C
	}
	return clamp(l.Scale/lambda-l.Shift, l.C)
}

// SatExp is f(x) = Scale·(1 − e^(−x/K)), a sharply saturating concave
// curve typical of working sets that fit in cache.
type SatExp struct {
	Scale float64 // must be >= 0
	K     float64 // must be > 0; smaller K saturates faster
	C     float64 // domain bound
}

// Value returns Scale·(1 − e^(−x/K)).
func (s SatExp) Value(x float64) float64 {
	return s.Scale * (1 - math.Exp(-clamp(x, s.C)/s.K))
}

// Deriv returns (Scale/K)·e^(−x/K).
func (s SatExp) Deriv(x float64) float64 {
	if x >= s.C {
		return 0
	}
	return s.Scale / s.K * math.Exp(-clamp(x, s.C)/s.K)
}

// Cap returns the domain bound.
func (s SatExp) Cap() float64 { return s.C }

// InverseDeriv solves (Scale/K)·e^(−x/K) = lambda in closed form.
func (s SatExp) InverseDeriv(lambda float64) float64 {
	if lambda <= 0 {
		return s.C
	}
	peak := s.Scale / s.K
	if lambda >= peak {
		return 0
	}
	return clamp(-s.K*math.Log(lambda/peak), s.C)
}

// Saturating is f(x) = Scale·x/(x+K), the M/M/1-style throughput curve used
// by the hosting substrate (throughput saturates as allocation grows).
type Saturating struct {
	Scale float64 // asymptotic maximum, >= 0
	K     float64 // half-saturation constant, > 0
	C     float64 // domain bound
}

// Value returns Scale·x/(x+K).
func (s Saturating) Value(x float64) float64 {
	x = clamp(x, s.C)
	if x == 0 {
		return 0
	}
	return s.Scale * x / (x + s.K)
}

// Deriv returns Scale·K/(x+K)².
func (s Saturating) Deriv(x float64) float64 {
	if x >= s.C {
		return 0
	}
	x = clamp(x, s.C)
	d := x + s.K
	return s.Scale * s.K / (d * d)
}

// Cap returns the domain bound.
func (s Saturating) Cap() float64 { return s.C }

// InverseDeriv solves Scale·K/(x+K)² = lambda in closed form.
func (s Saturating) InverseDeriv(lambda float64) float64 {
	if lambda <= 0 {
		return s.C
	}
	x := math.Sqrt(s.Scale*s.K/lambda) - s.K
	return clamp(x, s.C)
}

// ---------------------------------------------------------------------------
// Piecewise linear and sampled curves
// ---------------------------------------------------------------------------

// PiecewiseLinear is a concave piecewise-linear utility through a set of
// knots. It evaluates in O(log k) and inverts its derivative exactly, so it
// is the workhorse for linearized problems and for profiled curves where
// smoothness is not required.
type PiecewiseLinear struct {
	curve *interp.Linear
	c     float64
}

// NewPiecewiseLinear builds a piecewise-linear utility through
// (xs[i], ys[i]). The first knot must be at x = 0; the data must be
// nonnegative, nondecreasing and concave (nonincreasing secant slopes);
// the last knot defines Cap().
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) == 0 || xs[0] != 0 {
		return nil, errors.New("utility: piecewise-linear curve must start at x=0")
	}
	if len(ys) > 0 && ys[0] < 0 {
		return nil, errors.New("utility: negative utility value")
	}
	if !interp.IsMonotoneNondecreasing(ys) {
		return nil, errors.New("utility: values must be nondecreasing")
	}
	if !interp.IsConcaveData(xs, ys, 1e-9) {
		return nil, errors.New("utility: values must be concave")
	}
	curve, err := interp.NewLinear(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("utility: %w", err)
	}
	return &PiecewiseLinear{curve: curve, c: xs[len(xs)-1]}, nil
}

// Value evaluates the curve at x.
func (p *PiecewiseLinear) Value(x float64) float64 { return p.curve.At(clamp(x, p.c)) }

// Knots returns copies of the curve's defining knots — the exact
// (xs, ys) the curve was built from.
func (p *PiecewiseLinear) Knots() (xs, ys []float64) { return p.curve.Knots() }

// KnotCount returns the number of defining knots.
func (p *PiecewiseLinear) KnotCount() int { return p.curve.KnotCount() }

// Knot returns the i-th defining knot without copying the knot slices.
func (p *PiecewiseLinear) Knot(i int) (x, y float64) { return p.curve.Knot(i) }

// Deriv returns the slope of the segment containing x.
func (p *PiecewiseLinear) Deriv(x float64) float64 {
	if x >= p.c {
		return 0
	}
	return p.curve.DerivAt(clamp(x, p.c))
}

// Cap returns the domain bound.
func (p *PiecewiseLinear) Cap() float64 { return p.c }

// InverseDeriv returns the largest x whose segment slope is >= lambda.
// Because the curve is concave the slopes are nonincreasing, so the answer
// is the right endpoint of the last segment with slope >= lambda.
func (p *PiecewiseLinear) InverseDeriv(lambda float64) float64 {
	return p.curve.InvDeriv(lambda)
}

// Sampled is a smooth utility backed by PCHIP interpolation of sampled
// points — how the paper's workload generator and the cache profiler
// produce utilities. The data must be nonnegative and nondecreasing; PCHIP
// preserves monotonicity. Concavity of the interpolant is inherited from
// concave data in practice but is not guaranteed pointwise; Validate can
// check it numerically when required.
type Sampled struct {
	curve interp.PCHIP
	c     float64
}

// NewSampled builds a PCHIP-backed utility through (xs[i], ys[i]). The
// first knot must be at x = 0 and the data nonnegative and nondecreasing;
// the last knot defines Cap().
func NewSampled(xs, ys []float64) (*Sampled, error) {
	s := new(Sampled)
	if err := s.Init(xs, ys, make([]float64, 3*len(xs))); err != nil {
		return nil, err
	}
	return s, nil
}

// Init builds the curve NewSampled would into s, with its knots and
// slopes in buf (interp.PCHIP.Init: at least 3*len(xs) values, owned by
// s from then on), so a decoder can build many curves into a few slabs.
func (s *Sampled) Init(xs, ys, buf []float64) error {
	if len(xs) == 0 || xs[0] != 0 {
		return errors.New("utility: sampled curve must start at x=0")
	}
	for _, y := range ys {
		if y < 0 {
			return errors.New("utility: negative utility value")
		}
	}
	if !interp.IsMonotoneNondecreasing(ys) {
		return errors.New("utility: values must be nondecreasing")
	}
	if err := s.curve.Init(xs, ys, buf); err != nil {
		return fmt.Errorf("utility: %w", err)
	}
	s.c = xs[len(xs)-1]
	return nil
}

// Value evaluates the interpolated curve at x.
func (s *Sampled) Value(x float64) float64 { return s.curve.At(clamp(x, s.c)) }

// Knots returns copies of the curve's defining knots — the exact
// (xs, ys) the curve was built from.
func (s *Sampled) Knots() (xs, ys []float64) { return s.curve.Knots() }

// KnotCount returns the number of defining knots.
func (s *Sampled) KnotCount() int { return s.curve.KnotCount() }

// Knot returns the i-th defining knot without copying the knot slices.
func (s *Sampled) Knot(i int) (x, y float64) { return s.curve.Knot(i) }

// Deriv evaluates the interpolated derivative at x.
func (s *Sampled) Deriv(x float64) float64 {
	if x >= s.c {
		return 0
	}
	d := s.curve.DerivAt(clamp(x, s.c))
	if d < 0 {
		return 0 // numeric guard; PCHIP of monotone data is monotone
	}
	return d
}

// Cap returns the domain bound.
func (s *Sampled) Cap() float64 { return s.c }

// InverseDeriv returns the largest x with Deriv(x) >= lambda, resolved in
// closed form: the PCHIP derivative is quadratic within each knot interval,
// so each segment's superlevel set is an exact quadratic solve
// (interp.PCHIP.InvDeriv). This replaces the generic derivative bisection
// (~50 Deriv evaluations per query at the default tolerance) in the
// water-filling hot loop; sampled curves are what the paper's workload
// generator emits, so this is the path nearly every λ-probe takes.
func (s *Sampled) InverseDeriv(lambda float64) float64 {
	if lambda <= 0 {
		return s.c
	}
	return s.curve.InvDeriv(lambda)
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

// Scaled wraps a utility, multiplying its value by Factor >= 0. Positive
// scaling preserves all three model properties.
type Scaled struct {
	F      Func
	Factor float64
}

// Value returns Factor·F(x).
func (s Scaled) Value(x float64) float64 { return s.Factor * s.F.Value(x) }

// Deriv returns Factor·F'(x).
func (s Scaled) Deriv(x float64) float64 { return s.Factor * s.F.Deriv(x) }

// Cap returns the wrapped function's domain bound.
func (s Scaled) Cap() float64 { return s.F.Cap() }

// InverseDeriv delegates to the wrapped function when possible.
func (s Scaled) InverseDeriv(lambda float64) float64 {
	if s.Factor <= 0 {
		return 0
	}
	if inv, ok := s.F.(DerivInverter); ok {
		return inv.InverseDeriv(lambda / s.Factor)
	}
	return bisectInverseDeriv(s, lambda, defaultInvTol)
}

// Sum is the pointwise sum of utilities, itself concave and nondecreasing.
// All summands must share the same Cap.
type Sum struct {
	Fs []Func
}

// Value returns Σ F_i(x).
func (s Sum) Value(x float64) float64 {
	total := 0.0
	for _, f := range s.Fs {
		total += f.Value(x)
	}
	return total
}

// Deriv returns Σ F_i'(x).
func (s Sum) Deriv(x float64) float64 {
	total := 0.0
	for _, f := range s.Fs {
		total += f.Deriv(x)
	}
	return total
}

// Cap returns the common domain bound (the minimum across summands).
func (s Sum) Cap() float64 {
	if len(s.Fs) == 0 {
		return 0
	}
	c := s.Fs[0].Cap()
	for _, f := range s.Fs[1:] {
		if fc := f.Cap(); fc < c {
			c = fc
		}
	}
	return c
}

// Min is the pointwise minimum of utilities — still concave and
// nondecreasing, the standard way to express a demand cap
// ("throughput rises with allocation, but never beyond the offered
// load"): Min{F, CappedAt(demand)}.
type Min struct {
	Fs []Func
}

// Value returns min_i F_i(x).
func (m Min) Value(x float64) float64 {
	if len(m.Fs) == 0 {
		return 0
	}
	v := m.Fs[0].Value(x)
	for _, f := range m.Fs[1:] {
		if fv := f.Value(x); fv < v {
			v = fv
		}
	}
	return v
}

// Deriv returns the derivative of the currently-binding branch (the one
// achieving the minimum; ties pick the smaller derivative, which is the
// right one-sided derivative for a min of concave functions).
func (m Min) Deriv(x float64) float64 {
	if len(m.Fs) == 0 {
		return 0
	}
	bestV := m.Fs[0].Value(x)
	bestD := m.Fs[0].Deriv(x)
	for _, f := range m.Fs[1:] {
		v := f.Value(x)
		d := f.Deriv(x)
		tol := 1e-12 * (1 + math.Abs(bestV))
		switch {
		case v < bestV-tol:
			bestV, bestD = v, d
		case v <= bestV+tol && d < bestD:
			bestD = d
		}
	}
	return bestD
}

// Cap returns the common domain bound (the minimum across branches).
func (m Min) Cap() float64 {
	if len(m.Fs) == 0 {
		return 0
	}
	c := m.Fs[0].Cap()
	for _, f := range m.Fs[1:] {
		if fc := f.Cap(); fc < c {
			c = fc
		}
	}
	return c
}

// Capped restricts a utility's domain to [0, C], the model's
// f : [0, C] → ℝ≥0 for a thread whose F was defined over a larger
// domain (C no larger than F.Cap()). Every allocation on one server of
// capacity C runs on Capped curves.
type Capped struct {
	F Func
	C float64
}

// Value returns F(min(x, C)).
func (cf Capped) Value(x float64) float64 {
	if x > cf.C {
		x = cf.C
	}
	return cf.F.Value(x)
}

// Deriv returns F'(x) inside the domain and 0 from C on.
func (cf Capped) Deriv(x float64) float64 {
	if x >= cf.C {
		return 0
	}
	return cf.F.Deriv(x)
}

// Cap returns C.
func (cf Capped) Cap() float64 { return cf.C }

// InverseDeriv inverts F' (in closed form when F has one), clamped to C.
func (cf Capped) InverseDeriv(lambda float64) float64 {
	return min(InverseDeriv(cf.F, lambda, 1e-12), cf.C)
}

// Offset adds a constant Base >= 0 to a utility: f(0) > 0 is allowed by
// the model (the paper only requires nonnegativity).
type Offset struct {
	F    Func
	Base float64
}

// Value returns Base + F(x).
func (o Offset) Value(x float64) float64 { return o.Base + o.F.Value(x) }

// Deriv returns F'(x).
func (o Offset) Deriv(x float64) float64 { return o.F.Deriv(x) }

// Cap returns the wrapped function's domain bound.
func (o Offset) Cap() float64 { return o.F.Cap() }

// InverseDeriv delegates to the wrapped function when possible.
func (o Offset) InverseDeriv(lambda float64) float64 {
	if inv, ok := o.F.(DerivInverter); ok {
		return inv.InverseDeriv(lambda)
	}
	return bisectInverseDeriv(o, lambda, defaultInvTol)
}

// ---------------------------------------------------------------------------
// Generic derivative inversion and validation
// ---------------------------------------------------------------------------

const defaultInvTol = 1e-9

// InverseDeriv returns the largest x in [0, f.Cap()] with f.Deriv(x) >=
// lambda, to within tol, assuming f is concave (so Deriv is nonincreasing).
// If the implementation provides a DerivInverter fast path it is used.
func InverseDeriv(f Func, lambda, tol float64) float64 {
	if inv, ok := f.(DerivInverter); ok {
		return inv.InverseDeriv(lambda)
	}
	return bisectInverseDeriv(f, lambda, tol)
}

// bisectInverseDeriv is the generic bisection without the fast-path
// dispatch — combinators use it as their fallback so a wrapper whose
// inner function lacks a closed form cannot recurse into itself.
//
// The iteration count is bounded: an absolute tolerance below the
// float64 ulp at the domain's magnitude would otherwise never be
// reached (hi−lo cannot shrink past one ulp), turning the loop into a
// spin. 100 halvings of any float64 interval reach the ulp regardless.
func bisectInverseDeriv(f Func, lambda, tol float64) float64 {
	c := f.Cap()
	if f.Deriv(0) < lambda {
		return 0
	}
	if f.Deriv(c) >= lambda {
		return c
	}
	lo, hi := 0.0, c
	for iter := 0; iter < 100 && hi-lo > tol; iter++ {
		mid := 0.5 * (lo + hi)
		if f.Deriv(mid) >= lambda {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ValidationError reports which model assumption a utility violates.
type ValidationError struct {
	Property string  // "nonnegative", "nondecreasing" or "concave"
	X        float64 // where the violation was detected
	Detail   string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("utility: not %s at x=%g: %s", e.Property, e.X, e.Detail)
}

// Validate numerically checks the three model assumptions — nonnegative,
// nondecreasing, concave — on a grid of samples points over [0, Cap()].
// tol absorbs floating-point noise; samples ~1000 is plenty in practice.
func Validate(f Func, samples int, tol float64) error {
	if samples < 3 {
		samples = 3
	}
	c := f.Cap()
	if c <= 0 {
		return errors.New("utility: nonpositive capacity")
	}
	step := c / float64(samples-1)
	prevV := f.Value(0)
	if prevV < -tol {
		return &ValidationError{Property: "nonnegative", X: 0,
			Detail: fmt.Sprintf("f(0)=%g", prevV)}
	}
	prevSlope := math.Inf(1)
	prevX := 0.0
	for i := 1; i < samples; i++ {
		x := float64(i) * step
		v := f.Value(x)
		if v < -tol {
			return &ValidationError{Property: "nonnegative", X: x,
				Detail: fmt.Sprintf("f(x)=%g", v)}
		}
		if v < prevV-tol*(1+math.Abs(prevV)) {
			return &ValidationError{Property: "nondecreasing", X: x,
				Detail: fmt.Sprintf("f drops from %g to %g", prevV, v)}
		}
		slope := (v - prevV) / (x - prevX)
		if slope > prevSlope+tol*(1+math.Abs(prevSlope)) {
			return &ValidationError{Property: "concave", X: x,
				Detail: fmt.Sprintf("secant slope rises from %g to %g", prevSlope, slope)}
		}
		prevV, prevX, prevSlope = v, x, slope
	}
	return nil
}
