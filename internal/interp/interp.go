// Package interp provides shape-preserving interpolation of sampled curves.
//
// The centerpiece is PCHIP — Piecewise Cubic Hermite Interpolating
// Polynomial with Fritsch–Carlson slope limiting — which is the same
// algorithm behind Matlab's pchip function used by the paper's workload
// generator (IPDPS'16, §VII). PCHIP preserves monotonicity of the data: if
// the sample values are nondecreasing, the interpolant is nondecreasing
// everywhere, which is exactly the property utility functions require.
//
// A simpler piecewise-linear interpolant is also provided; it additionally
// preserves concavity exactly (a chord interpolant of concave data is
// concave), which some callers prefer over PCHIP's smoothness.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Curve is a one-dimensional interpolant over a finite domain.
type Curve interface {
	// At evaluates the curve at x. Arguments outside [Min, Max] are
	// clamped to the domain boundary.
	At(x float64) float64
	// DerivAt evaluates the first derivative at x (one-sided at the
	// domain boundaries, and from the right at interior knots).
	DerivAt(x float64) float64
	// Min returns the left end of the domain.
	Min() float64
	// Max returns the right end of the domain.
	Max() float64
}

// Common validation errors.
var (
	ErrTooFewPoints   = errors.New("interp: need at least two sample points")
	ErrLengthMismatch = errors.New("interp: xs and ys have different lengths")
	ErrNotIncreasing  = errors.New("interp: xs must be strictly increasing")
	ErrNonFinite      = errors.New("interp: sample contains NaN or Inf")
	// ErrOverflow rejects finite samples whose slopes, or the
	// interpolant's coefficients, overflow float64.
	ErrOverflow = errors.New("interp: slopes overflow float64")
)

func validate(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return ErrLengthMismatch
	}
	if len(xs) < 2 {
		return ErrTooFewPoints
	}
	for i := range xs {
		if !isFinite(xs[i]) || !isFinite(ys[i]) {
			return ErrNonFinite
		}
		if i > 0 && xs[i] <= xs[i-1] {
			return fmt.Errorf("%w: xs[%d]=%v <= xs[%d]=%v",
				ErrNotIncreasing, i, xs[i], i-1, xs[i-1])
		}
		if i > 0 && !isFinite((ys[i]-ys[i-1])/(xs[i]-xs[i-1])) {
			return fmt.Errorf("%w: secant slope on [xs[%d], xs[%d]]", ErrOverflow, i-1, i)
		}
	}
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// locate returns the index i of the knot interval [xs[i], xs[i+1]]
// containing x, clamping to the first or last interval.
func locate(xs []float64, x float64) int {
	n := len(xs)
	if x <= xs[0] {
		return 0
	}
	if x >= xs[n-1] {
		return n - 2
	}
	// sort.SearchFloat64s returns the smallest i with xs[i] >= x.
	i := sort.SearchFloat64s(xs, x)
	if xs[i] == x {
		return min(i, n-2)
	}
	return i - 1
}

// Linear is a piecewise-linear interpolant. It preserves both monotonicity
// and concavity/convexity of the data exactly.
type Linear struct {
	xs, ys []float64
}

// NewLinear builds a piecewise-linear interpolant through (xs[i], ys[i]).
// xs must be strictly increasing. The slices are copied, into one
// allocation.
func NewLinear(xs, ys []float64) (*Linear, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	buf := make([]float64, 2*n)
	l := &Linear{xs: buf[:n:n], ys: buf[n:]}
	copy(l.xs, xs)
	copy(l.ys, ys)
	return l, nil
}

// At evaluates the interpolant, clamping x to the domain.
func (l *Linear) At(x float64) float64 {
	if x <= l.xs[0] {
		return l.ys[0]
	}
	n := len(l.xs)
	if x >= l.xs[n-1] {
		return l.ys[n-1]
	}
	i := locate(l.xs, x)
	t := (x - l.xs[i]) / (l.xs[i+1] - l.xs[i])
	return l.ys[i] + t*(l.ys[i+1]-l.ys[i])
}

// DerivAt returns the slope of the segment containing x.
func (l *Linear) DerivAt(x float64) float64 {
	i := locate(l.xs, x)
	return (l.ys[i+1] - l.ys[i]) / (l.xs[i+1] - l.xs[i])
}

// Min returns the left end of the domain.
func (l *Linear) Min() float64 { return l.xs[0] }

// Max returns the right end of the domain.
func (l *Linear) Max() float64 { return l.xs[len(l.xs)-1] }

// InvDeriv returns the right endpoint of the last segment in the initial
// run of segments with slope >= lambda, or Min() when the first segment is
// already below lambda. For concave data (nonincreasing slopes) this is the
// largest x with DerivAt(x) >= lambda.
func (l *Linear) InvDeriv(lambda float64) float64 {
	best := l.xs[0]
	for i := 0; i+1 < len(l.xs); i++ {
		if (l.ys[i+1]-l.ys[i])/(l.xs[i+1]-l.xs[i]) < lambda {
			break
		}
		best = l.xs[i+1]
	}
	return best
}

// Knots returns copies of the sample points.
func (l *Linear) Knots() (xs, ys []float64) {
	return append([]float64(nil), l.xs...), append([]float64(nil), l.ys...)
}

// KnotCount returns the number of sample points.
func (l *Linear) KnotCount() int { return len(l.xs) }

// Knot returns the i-th sample point without copying the knot slices.
func (l *Linear) Knot(i int) (x, y float64) { return l.xs[i], l.ys[i] }

// PCHIP is a piecewise cubic Hermite interpolant with Fritsch–Carlson
// monotone slope limiting — the algorithm behind Matlab's pchip.
//
// Within each interval [x_i, x_{i+1}] the curve is the cubic Hermite
// polynomial matching the data values and the limited derivative estimates
// d_i, d_{i+1}. The Fritsch–Carlson limiter guarantees the interpolant is
// monotone on every interval where the data is monotone, and has no
// overshoot at local extrema.
type PCHIP struct {
	xs, ys []float64
	d      []float64 // limited derivative at each knot
}

// Init builds into p a monotone piecewise-cubic interpolant through
// (xs[i], ys[i]). xs must be strictly increasing. The knots are copied
// into buf, which also keeps the slopes, must hold at least 3*len(xs)
// values and is owned by p from then on. Batch builders use it to lay
// many curves out in a few large allocations.
func (p *PCHIP) Init(xs, ys, buf []float64) error {
	if err := validate(xs, ys); err != nil {
		return err
	}
	n := len(xs)
	buf = buf[: 3*n : 3*n]
	*p = PCHIP{xs: buf[:n:n], ys: buf[n : 2*n : 2*n], d: buf[2*n:]}
	copy(p.xs, xs)
	copy(p.ys, ys)
	pchipSlopes(p.d, p.xs, p.ys)
	for i := 0; i+1 < n; i++ {
		h, a, b := p.hermite(i)
		if !isFinite(a) || !isFinite(b) || !isFinite(h*p.d[i]) || !isFinite(h*p.d[i+1]) {
			return fmt.Errorf("%w: interval [xs[%d], xs[%d]]", ErrOverflow, i, i+1)
		}
	}
	return nil
}

// hermite returns interval i's width h and the coefficients a, b of its
// derivative p'(t) = a·t² + b·t + d_i (see InvDeriv); At scales the knot
// slopes by h.
func (p *PCHIP) hermite(i int) (h, a, b float64) {
	h = p.xs[i+1] - p.xs[i]
	del := (p.ys[i+1] - p.ys[i]) / h
	return h, 3*(p.d[i]+p.d[i+1]) - 6*del, 6*del - 4*p.d[i] - 2*p.d[i+1]
}

// pchipSlopes writes the Fritsch–Carlson limited derivatives into d. The
// interval widths h and secant slopes del are recomputed where they are
// used, with the same operations, rather than stored.
func pchipSlopes(d, xs, ys []float64) {
	n := len(xs)
	h := func(i int) float64 { return xs[i+1] - xs[i] }                         // interval width
	del := func(i int) float64 { return (ys[i+1] - ys[i]) / (xs[i+1] - xs[i]) } // secant slope
	if n == 2 {
		s := del(0)
		d[0], d[1] = s, s
		return
	}
	// Interior knots: weighted harmonic mean of adjacent secants when they
	// have the same sign, zero otherwise (Fritsch–Carlson / Matlab pchip).
	h0, del0 := h(0), del(0)
	for i := 1; i < n-1; i++ {
		h1, del1 := h(i), del(i)
		if del0*del1 <= 0 {
			d[i] = 0
		} else {
			w1 := 2*h1 + h0
			w2 := h1 + 2*h0
			d[i] = (w1 + w2) / (w1/del0 + w2/del1)
		}
		h0, del0 = h1, del1
	}
	d[0] = edgeSlope(h(0), h(1), del(0), del(1))
	d[n-1] = edgeSlope(h(n-2), h(n-3), del(n-2), del(n-3))
}

// edgeSlope is the non-centered three-point endpoint formula with the
// shape-preserving clamps used by Matlab's pchip. Secants near the top
// of the float64 range overflow its products; the same slope is then
// taken as del0 + (del0−del1)·h0/(h0+h1), which divides first.
func edgeSlope(h0, h1, del0, del1 float64) float64 {
	d := ((2*h0+h1)*del0 - h0*del1) / (h0 + h1)
	if !isFinite(d) {
		d = del0 + (del0-del1)/(1+h1/h0)
	}
	if sign(d) != sign(del0) {
		return 0
	}
	if sign(del0) != sign(del1) && abs(d) > 3*abs(del0) {
		return 3 * del0
	}
	return d
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// At evaluates the interpolant, clamping x to the domain.
func (p *PCHIP) At(x float64) float64 {
	n := len(p.xs)
	if x <= p.xs[0] {
		return p.ys[0]
	}
	if x >= p.xs[n-1] {
		return p.ys[n-1]
	}
	i := locate(p.xs, x)
	h := p.xs[i+1] - p.xs[i]
	t := (x - p.xs[i]) / h
	// Cubic Hermite basis.
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*p.ys[i] + h10*h*p.d[i] + h01*p.ys[i+1] + h11*h*p.d[i+1]
}

// DerivAt evaluates the derivative of the interpolant at x (clamped to the
// domain; zero outside, matching the flat extension used by At).
func (p *PCHIP) DerivAt(x float64) float64 {
	n := len(p.xs)
	if x < p.xs[0] || x > p.xs[n-1] {
		return 0
	}
	i := locate(p.xs, x)
	h := p.xs[i+1] - p.xs[i]
	t := (x - p.xs[i]) / h
	t2 := t * t
	dh00 := (6*t2 - 6*t) / h
	dh10 := 3*t2 - 4*t + 1
	dh01 := (-6*t2 + 6*t) / h
	dh11 := 3*t2 - 2*t
	return dh00*p.ys[i] + dh10*p.d[i] + dh01*p.ys[i+1] + dh11*p.d[i+1]
}

// Min returns the left end of the domain.
func (p *PCHIP) Min() float64 { return p.xs[0] }

// Max returns the right end of the domain.
func (p *PCHIP) Max() float64 { return p.xs[len(p.xs)-1] }

// InvDeriv returns the largest x in the domain with DerivAt(x) >= lambda,
// or Min() when the derivative is below lambda everywhere.
//
// Within a knot interval the Hermite derivative is the quadratic
//
//	p'(t) = A·t² + B·t + C,  t = (x - x_i)/h,
//	A = 3(d_i + d_{i+1}) - 6Δ,  B = 6Δ - 4d_i - 2d_{i+1},  C = d_i,
//
// where Δ is the secant slope, so the superlevel set {p' >= λ} is resolved
// exactly per segment by a quadratic solve. Segments are scanned right to
// left and the first nonempty superlevel set yields the supremum. This is
// O(#segments) with no curve evaluations, replacing the generic derivative
// bisection (~50 DerivAt calls per query) for callers that need the inverse
// in a hot loop.
func (p *PCHIP) InvDeriv(lambda float64) float64 {
	for i := len(p.xs) - 2; i >= 0; i-- {
		h, a, b := p.hermite(i)
		if t, ok := largestSuplevel(a, b, p.d[i]-lambda); ok {
			x := p.xs[i] + t*h
			// Guard the affine map against rounding past the interval.
			if x > p.xs[i+1] {
				x = p.xs[i+1]
			}
			if x < p.xs[i] {
				x = p.xs[i]
			}
			return x
		}
	}
	return p.xs[0]
}

// largestSuplevel returns sup{t ∈ [0,1] : q(t) >= 0} for the quadratic
// q(t) = a·t² + b·t + c, and whether that set is nonempty.
func largestSuplevel(a, b, c float64) (float64, bool) {
	if a+b+c >= 0 { // q(1) >= 0: the supremum is the right endpoint.
		return 1, true
	}
	if a == 0 {
		if b <= 0 {
			// Constant or decreasing with q(1) < 0: q >= 0 up to the
			// single crossing, if it lies in the interval at all.
			if b == 0 {
				return 0, c >= 0
			}
			t := -c / b
			return t, t >= 0
		}
		return 0, false // increasing with q(1) < 0: negative throughout
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, false // no real roots and q(1) < 0: negative throughout
	}
	// Numerically stable root pair (avoids cancellation in -b ± √disc).
	s := math.Sqrt(disc)
	var w float64
	if b >= 0 {
		w = -0.5 * (b + s)
	} else {
		w = -0.5 * (b - s)
	}
	r1 := w / a
	r2 := 0.0
	if w != 0 {
		r2 = c / w
	}
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	if a < 0 {
		// Concave parabola: q >= 0 exactly on [r1, r2]. Since q(1) < 0 the
		// interval lies entirely left or right of 1.
		if r1 > 1 {
			return 0, false
		}
		return r2, r2 >= 0
	}
	// Convex parabola: q >= 0 on (-∞, r1] ∪ [r2, ∞); q(1) < 0 pins
	// 1 ∈ (r1, r2), so within [0,1] only [0, r1] can qualify.
	return r1, r1 >= 0
}

// Knots returns copies of the sample points.
func (p *PCHIP) Knots() (xs, ys []float64) {
	return append([]float64(nil), p.xs...), append([]float64(nil), p.ys...)
}

// KnotCount returns the number of sample points.
func (p *PCHIP) KnotCount() int { return len(p.xs) }

// Knot returns the i-th sample point without copying the knot slices.
func (p *PCHIP) Knot(i int) (x, y float64) { return p.xs[i], p.ys[i] }

// IsMonotoneNondecreasing reports whether the sampled data is nondecreasing.
func IsMonotoneNondecreasing(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			return false
		}
	}
	return true
}

// IsConcaveData reports whether the sampled points (xs, ys) lie on a concave
// sequence, i.e. the secant slopes are nonincreasing up to tol.
func IsConcaveData(xs, ys []float64, tol float64) bool {
	if len(xs) != len(ys) || len(xs) < 3 {
		return true
	}
	prev := (ys[1] - ys[0]) / (xs[1] - xs[0])
	for i := 1; i < len(xs)-1; i++ {
		s := (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
		if s > prev+tol {
			return false
		}
		prev = s
	}
	return true
}
