package alloc_test

import (
	"math"
	"testing"

	"aa/internal/alloc"
	"aa/internal/check"
	"aa/internal/utility"
)

// FuzzConcavePlateau builds instances from copies of three curves, two
// straight lines and a three-knot PCHIP, interleaved in index order, so
// S(λ) = Σ x_i(λ) jumps at the straight lines' slopes and often at λ*
// itself. Each thread's Concave allocation must match the unpruned
// reference bisection check.ConcaveRef's: at a jump that decides which
// threads the leftover budget goes to.
func FuzzConcavePlateau(f *testing.F) {
	f.Add(5.0, 1.0, 5.0, 1.0, uint8(12), uint8(2), uint8(4), 0.2)
	f.Add(20.0, 1.0, 20.0, 20.0, uint8(15), uint8(15), uint8(1), 0.5)
	f.Add(1.0, 1.0, 3.0, 0.5, uint8(7), uint8(3), uint8(9), 0.37)
	f.Fuzz(func(t *testing.T, v1, v2, v3, w3 float64, k1, k2, k3 uint8, frac float64) {
		for _, v := range []float64{v1, v2, v3, w3} {
			if !(v >= 1e-3 && v <= 1e3) {
				t.Skip()
			}
		}
		if !(frac > 0 && frac < 1) {
			t.Skip()
		}
		const c = 100.0
		curve := func(v, w float64) utility.Func {
			f, err := utility.NewSampled([]float64{0, c / 2, c}, []float64{0, v, v + min(v, w)})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		kinds := []utility.Func{curve(v1, v1), curve(v2, v2), curve(v3, w3)}
		counts := []int{1 + int(k1%16), 1 + int(k2%16), 1 + int(k3%16)}
		n := counts[0] + counts[1] + counts[2]
		var fs []utility.Func
		for len(fs) < n {
			for k := range kinds {
				if counts[k] > 0 {
					fs, counts[k] = append(fs, kinds[k]), counts[k]-1
				}
			}
		}
		budget := frac * c * float64(len(fs))
		got, want := alloc.Concave(fs, budget), check.ConcaveRef(fs, budget)
		for i := range fs {
			if math.Abs(got.Alloc[i]-want.Alloc[i]) > 1e-6*(1+budget) {
				t.Fatalf("thread %d of %d, budget %v: Concave %v, reference %v",
					i, len(fs), budget, got.Alloc[i], want.Alloc[i])
			}
		}
		if err := check.Allocation(fs, got.Alloc, budget, check.DefaultEps); err != nil {
			t.Fatal(err)
		}
	})
}
