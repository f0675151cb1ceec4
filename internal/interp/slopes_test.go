package interp

import (
	"math"
	"math/rand"
	"testing"
)

// refPCHIPSlopes is the slope computation with the interval widths and
// secant slopes stored in temporaries, as Init once did it.
func refPCHIPSlopes(xs, ys []float64) []float64 {
	n := len(xs)
	d := make([]float64, n)
	if n == 2 {
		s := (ys[1] - ys[0]) / (xs[1] - xs[0])
		d[0], d[1] = s, s
		return d
	}
	h := make([]float64, n-1)
	del := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		h[i] = xs[i+1] - xs[i]
		del[i] = (ys[i+1] - ys[i]) / h[i]
	}
	for i := 1; i < n-1; i++ {
		if del[i-1]*del[i] <= 0 {
			d[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		d[i] = (w1 + w2) / (w1/del[i-1] + w2/del[i])
	}
	d[0] = edgeSlope(h[0], h[1], del[0], del[1])
	d[n-1] = edgeSlope(h[n-2], h[n-3], del[n-2], del[n-3])
	return d
}

// TestPCHIPSlopesBitIdentical: Init's in-place slopes have exactly
// the bits of the temporaries-based computation, on monotone, flat,
// non-monotone and badly scaled data.
func TestPCHIPSlopesBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		n := 2 + r.Intn(12)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 1; i < n; i++ {
			xs[i] = xs[i-1] + math.Exp(r.NormFloat64()*3)
			switch trial % 3 {
			case 0:
				ys[i] = ys[i-1] + math.Abs(r.NormFloat64())*math.Exp(r.NormFloat64()*4)
			case 1:
				ys[i] = r.NormFloat64()
			default:
				ys[i] = ys[i-1] + float64(r.Intn(2))
			}
		}
		p, err := newPCHIP(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		want := refPCHIPSlopes(xs, ys)
		for i, got := range p.d {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d knot %d: slope %v, reference %v\nxs=%v\nys=%v", trial, i, got, want[i], xs, ys)
			}
		}
	}
}
