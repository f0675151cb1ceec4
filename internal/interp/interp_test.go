package interp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		ys   []float64
		want error
	}{
		{"mismatch", []float64{0, 1}, []float64{0}, ErrLengthMismatch},
		{"too few", []float64{0}, []float64{0}, ErrTooFewPoints},
		{"empty", nil, nil, ErrTooFewPoints},
		{"not increasing", []float64{0, 0}, []float64{0, 1}, ErrNotIncreasing},
		{"decreasing", []float64{1, 0}, []float64{0, 1}, ErrNotIncreasing},
		{"nan x", []float64{math.NaN(), 1}, []float64{0, 1}, ErrNonFinite},
		{"nan y", []float64{0, 1}, []float64{0, math.NaN()}, ErrNonFinite},
		{"inf y", []float64{0, 1}, []float64{0, math.Inf(1)}, ErrNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLinear(tc.xs, tc.ys); err == nil {
				t.Errorf("NewLinear(%v,%v) = nil error, want %v", tc.xs, tc.ys, tc.want)
			}
			if _, err := newPCHIP(tc.xs, tc.ys); err == nil {
				t.Errorf("newPCHIP(%v,%v) = nil error, want %v", tc.xs, tc.ys, tc.want)
			}
		})
	}
}

func TestLinearInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 1, 3, 7}
	ys := []float64{0, 2, 5, 6}
	l, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := l.At(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestLinearMidpoints(t *testing.T) {
	l, err := NewLinear([]float64{0, 2, 4}, []float64{0, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.At(1); got != 2 {
		t.Errorf("At(1) = %v, want 2", got)
	}
	if got := l.At(3); got != 5 {
		t.Errorf("At(3) = %v, want 5", got)
	}
}

func TestLinearClampsOutsideDomain(t *testing.T) {
	l, _ := NewLinear([]float64{0, 1}, []float64{3, 5})
	if got := l.At(-10); got != 3 {
		t.Errorf("At(-10) = %v, want 3", got)
	}
	if got := l.At(10); got != 5 {
		t.Errorf("At(10) = %v, want 5", got)
	}
}

func TestLinearDeriv(t *testing.T) {
	l, _ := NewLinear([]float64{0, 1, 3}, []float64{0, 2, 2})
	if got := l.DerivAt(0.5); got != 2 {
		t.Errorf("DerivAt(0.5) = %v, want 2", got)
	}
	if got := l.DerivAt(2); got != 0 {
		t.Errorf("DerivAt(2) = %v, want 0", got)
	}
}

func TestLinearDomain(t *testing.T) {
	l, _ := NewLinear([]float64{-2, 5}, []float64{0, 1})
	if l.Min() != -2 || l.Max() != 5 {
		t.Errorf("domain = [%v,%v], want [-2,5]", l.Min(), l.Max())
	}
}

func TestPCHIPInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 0.5, 1, 2, 4}
	ys := []float64{0, 1, 1.5, 1.75, 2}
	p, err := newPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := p.At(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestPCHIPTwoPointsIsLinear(t *testing.T) {
	p, err := newPCHIP([]float64{0, 2}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.5, 1, 1.5, 2} {
		want := 1 + 2*x
		if got := p.At(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

// PCHIP of monotone data must be monotone — the defining property.
func TestPCHIPMonotonePreservation(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0, 0.1, 3, 3.05, 3.1, 10}
	p, err := newPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.At(0)
	for x := 0.0; x <= 5.0; x += 0.001 {
		v := p.At(x)
		if v < prev-1e-9 {
			t.Fatalf("PCHIP not monotone: At(%v)=%v < previous %v", x, v, prev)
		}
		prev = v
	}
}

// No overshoot: interpolant stays within the data range.
func TestPCHIPNoOvershoot(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 10, 10.1, 10.2}
	p, _ := newPCHIP(xs, ys)
	for x := 0.0; x <= 3.0; x += 0.001 {
		v := p.At(x)
		if v < -1e-9 || v > 10.2+1e-9 {
			t.Fatalf("overshoot at x=%v: %v outside [0, 10.2]", x, v)
		}
	}
}

// The paper's generator shape: (0,0), (C/2, v), (C, v+w) with w <= v.
// PCHIP through such points must be nondecreasing.
func TestPCHIPPaperShape(t *testing.T) {
	const c = 1000.0
	for _, vw := range [][2]float64{{1, 1}, {5, 1}, {2, 0}, {0.3, 0.29}} {
		v, w := vw[0], vw[1]
		p, err := newPCHIP([]float64{0, c / 2, c}, []float64{0, v, v + w})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for x := 0.0; x <= c; x += 0.5 {
			y := p.At(x)
			if y < prev-1e-9 {
				t.Fatalf("v=%v w=%v: decreasing at x=%v (%v < %v)", v, w, x, y, prev)
			}
			prev = y
		}
		if got := p.At(c); math.Abs(got-(v+w)) > 1e-9 {
			t.Errorf("At(C) = %v, want %v", got, v+w)
		}
	}
}

func TestPCHIPDerivativeMatchesFiniteDifference(t *testing.T) {
	xs := []float64{0, 1, 2, 4, 8}
	ys := []float64{0, 3, 4, 4.5, 5}
	p, _ := newPCHIP(xs, ys)
	const h = 1e-6
	for _, x := range []float64{0.25, 0.75, 1.5, 3, 6} {
		fd := (p.At(x+h) - p.At(x-h)) / (2 * h)
		if got := p.DerivAt(x); math.Abs(got-fd) > 1e-4 {
			t.Errorf("DerivAt(%v) = %v, finite difference %v", x, got, fd)
		}
	}
}

func TestPCHIPDerivNonNegativeForMonotoneData(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 2, 2.5, 2.6, 5}
	p, _ := newPCHIP(xs, ys)
	for x := 0.0; x <= 4.0; x += 0.01 {
		if d := p.DerivAt(x); d < -1e-9 {
			t.Fatalf("DerivAt(%v) = %v < 0 for monotone data", x, d)
		}
	}
}

func TestPCHIPFlatData(t *testing.T) {
	p, _ := newPCHIP([]float64{0, 1, 2}, []float64{3, 3, 3})
	for _, x := range []float64{0, 0.3, 1, 1.7, 2} {
		if got := p.At(x); math.Abs(got-3) > 1e-12 {
			t.Errorf("At(%v) = %v, want 3", x, got)
		}
		if got := p.DerivAt(x); math.Abs(got) > 1e-12 {
			t.Errorf("DerivAt(%v) = %v, want 0", x, got)
		}
	}
}

func TestPCHIPLocalExtremumZeroSlope(t *testing.T) {
	// Data rises then falls; the knot at the peak must get derivative 0.
	p, _ := newPCHIP([]float64{0, 1, 2}, []float64{0, 5, 0})
	d := p.d
	if d[1] != 0 {
		t.Errorf("slope at extremum = %v, want 0", d[1])
	}
}

func TestKnotsReturnsCopies(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 1, 4}
	p, _ := newPCHIP(xs, ys)
	gx, gy := p.Knots()
	gx[0] = 99
	gy[0] = 99
	if p.At(0) != 0 {
		t.Error("mutating Knots() result affected interpolant")
	}
	l, _ := NewLinear(xs, ys)
	lx, ly := l.Knots()
	lx[0], ly[0] = 99, 99
	if l.At(0) != 0 {
		t.Error("mutating Linear Knots() result affected interpolant")
	}
}

func TestNewCopiesInput(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 1, 4}
	p, _ := newPCHIP(xs, ys)
	xs[1] = 1.5
	ys[1] = -7
	if got := p.At(1); got != 1 {
		t.Errorf("At(1) = %v after mutating input, want 1", got)
	}
}

func TestIsMonotoneNondecreasing(t *testing.T) {
	if !IsMonotoneNondecreasing([]float64{0, 0, 1, 5}) {
		t.Error("expected monotone")
	}
	if IsMonotoneNondecreasing([]float64{0, 2, 1}) {
		t.Error("expected non-monotone")
	}
	if !IsMonotoneNondecreasing(nil) {
		t.Error("empty slice should count as monotone")
	}
}

func TestIsConcaveData(t *testing.T) {
	if !IsConcaveData([]float64{0, 1, 2}, []float64{0, 2, 3}, 1e-12) {
		t.Error("expected concave")
	}
	if IsConcaveData([]float64{0, 1, 2}, []float64{0, 1, 3}, 1e-12) {
		t.Error("expected convex data to be rejected")
	}
	if !IsConcaveData([]float64{0, 1}, []float64{0, 5}, 0) {
		t.Error("two points are trivially concave")
	}
}

// Property: for random monotone data, PCHIP is monotone on a dense grid.
func TestPCHIPMonotoneProperty(t *testing.T) {
	f := func(incs [6]float64) bool {
		xs := make([]float64, 7)
		ys := make([]float64, 7)
		for i := 1; i < 7; i++ {
			xs[i] = xs[i-1] + 1
			ys[i] = ys[i-1] + math.Abs(incs[i-1])
		}
		for i := range ys {
			if !isFinite(ys[i]) {
				return true // skip degenerate random draws
			}
		}
		p, err := newPCHIP(xs, ys)
		if err != nil {
			return errors.Is(err, ErrOverflow) // finite data whose slopes overflow
		}
		prev := p.At(0)
		for x := 0.0; x <= 6.0; x += 0.05 {
			v := p.At(x)
			if v < prev-1e-6*(1+math.Abs(prev)) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPCHIPNearMaxFloat: finite knots near the top of the float64
// range. The first draw once failed TestPCHIPMonotoneProperty: the
// end-slope formula's products overflowed, the right end slope came out
// +Inf and At returned −Inf inside the last interval. Its last interval
// is too steep for the derivative's coefficients, so it is rejected by
// type; a curve whose slopes are representable is built, and stays
// monotone and finite.
func TestPCHIPNearMaxFloat(t *testing.T) {
	cumulative := func(incs ...float64) []float64 {
		ys := []float64{0}
		for _, inc := range incs {
			ys = append(ys, ys[len(ys)-1]+inc)
		}
		return ys
	}
	drawn := cumulative(1.2022139466079016e+307, 1.0612156677052559e+307, 2.2152771541148309e+307,
		6.723726925889503e+306, 2.8460246774349173e+307, 8.84136642234718e+307)
	if _, err := newPCHIP([]float64{0, 1, 2, 3, 4, 5, 6}, drawn); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if _, err := newPCHIP([]float64{0, 1e-300}, []float64{0, 1e10}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	// (2h0+h1)·del0 overflows here; the slope itself is 1.5e8.
	xs := []float64{0, 1e300, 2e300}
	p, err := newPCHIP(xs, cumulative(1e308, 0))
	if err != nil {
		t.Fatal(err)
	}
	prev := p.At(0)
	for x := 0.0; x <= xs[2]; x += xs[2] / 64 {
		v := p.At(x)
		if !isFinite(v) || v < prev-1e-9*prev {
			t.Fatalf("At(%v) = %v after %v", x, v, prev)
		}
		prev = v
	}
}

func TestLocate(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	cases := []struct {
		x    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.5, 0}, {1, 1}, {1.5, 1}, {2.9, 2}, {3, 2}, {4, 2},
	}
	for _, tc := range cases {
		if got := locate(xs, tc.x); got != tc.want {
			t.Errorf("locate(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func BenchmarkPCHIPAt(b *testing.B) {
	xs := make([]float64, 64)
	ys := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = math.Sqrt(float64(i))
	}
	p, _ := newPCHIP(xs, ys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.At(float64(i%6300) / 100)
	}
}

// newPCHIP builds an interpolant through Init on a buffer of its own.
func newPCHIP(xs, ys []float64) (*PCHIP, error) {
	p := new(PCHIP)
	if err := p.Init(xs, ys, make([]float64, 3*len(xs))); err != nil {
		return nil, err
	}
	return p, nil
}
