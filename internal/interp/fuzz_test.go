package interp

import (
	"math"
	"testing"
)

// FuzzPCHIPMonotone feeds arbitrary nondecreasing data (built from
// absolute increments) and asserts the interpolant never decreases,
// never overshoots the data range, and reproduces the knots. Run with
// `go test -fuzz FuzzPCHIPMonotone ./internal/interp` to explore; the
// seed corpus runs in normal `go test`.
func FuzzPCHIPMonotone(f *testing.F) {
	f.Add(1.0, 0.5, 2.0, 0.0, 3.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(10.0, 1e-9, 5.0, 1e6, 0.1)
	f.Add(0.25, 0.25, 0.25, 0.25, 0.25)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		incs := [5]float64{a, b, c, d, e}
		xs := make([]float64, 6)
		ys := make([]float64, 6)
		for i := 1; i < 6; i++ {
			inc := math.Abs(incs[i-1])
			if math.IsNaN(inc) || math.IsInf(inc, 0) || inc > 1e9 {
				t.Skip()
			}
			xs[i] = xs[i-1] + 1
			ys[i] = ys[i-1] + inc
		}
		p, err := newPCHIP(xs, ys)
		if err != nil {
			t.Fatalf("valid data rejected: %v", err)
		}
		lo, hi := ys[0], ys[5]
		prev := p.At(0)
		for x := 0.0; x <= 5.0; x += 0.01 {
			v := p.At(x)
			if math.IsNaN(v) {
				t.Fatalf("NaN at %v", x)
			}
			tol := 1e-9 * (1 + math.Abs(prev))
			if v < prev-tol {
				t.Fatalf("decreasing at %v: %v < %v", x, v, prev)
			}
			if v < lo-tol || v > hi+1e-9*(1+hi) {
				t.Fatalf("overshoot at %v: %v outside [%v, %v]", x, v, lo, hi)
			}
			prev = v
		}
		for i, x := range xs {
			if math.Abs(p.At(x)-ys[i]) > 1e-9*(1+math.Abs(ys[i])) {
				t.Fatalf("knot %d not interpolated", i)
			}
		}
	})
}
