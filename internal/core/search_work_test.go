package core_test

import (
	"fmt"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// countingFunc wraps a curve and counts the λ-search's InverseDeriv
// calls on it.
type countingFunc struct {
	utility.Func
	n *int
}

func (c countingFunc) InverseDeriv(lambda float64) float64 {
	*c.n++
	return utility.InverseDeriv(c.Func, lambda, 1e-12)
}

// callsPerThread is the mean number of InverseDeriv calls per thread in
// one cold super-optimal solve of in.
func callsPerThread(in *core.Instance) float64 {
	calls := 0
	wrapped := *in
	wrapped.Threads = make([]utility.Func, len(in.Threads))
	for i, f := range in.Threads {
		wrapped.Threads[i] = countingFunc{Func: f, n: &calls}
	}
	core.SuperOptimal(&wrapped)
	return float64(calls) / float64(len(in.Threads))
}

// TestSearchWorkPinned pins the λ-search's work: InverseDeriv calls per
// thread in one cold super-optimal solve, on the six figure workloads at
// the benchmark sizes and seeds (m = 8, C = 1000) and on the four
// perfbench workload shapes (the mean over a few seeds). Each ceiling
// sits a little above the count the search makes and no higher than the
// plain bisection's (in the comment), so a change that makes the search
// do more work fails here.
func TestSearchWorkPinned(t *testing.T) {
	ceilings := map[string][3]float64{ // n = 100, 10³, 10⁴
		"fig1a-uniform":         {9.8, 7.2, 6.6},  // bisection 28.4, 13.9, 11.4
		"fig1b-normal":          {6.4, 5.3, 4.8},  // 22.5, 10.5, 8.4
		"fig2a-powerlaw2.0":     {7.5, 3.5, 1.13}, // 17.5, 5.1, 1.13
		"fig2b-powerlaw1.5":     {5.6, 1.7, 1.44}, // 12.9, 2.4, 1.45
		"fig3-discrete-theta5":  {4.2, 8.3, 7.8},  // 20.0, 19.8, 19.1
		"fig3-discrete-theta20": {4.2, 8.6, 7.3},  // 18.5, 18.2, 17.7
	}
	for _, w := range check.FigureWorkloads() {
		for k, n := range benchSizes {
			in, err := gen.Instance(w.Dist, 8, 1000, n, rng.New(uint64(4242+n)))
			if err != nil {
				t.Fatal(err)
			}
			got, ceiling := callsPerThread(in), ceilings[w.Name][k]
			t.Logf("%s n=%d: %.3f calls per thread", w.Name, n, got)
			if got > ceiling {
				t.Errorf("%s n=%d: %.3f InverseDeriv calls per thread, ceiling %v", w.Name, n, got, ceiling)
			}
		}
	}
	for _, tc := range []struct {
		shape   string
		seeds   int
		ceiling float64 // bisection in the comment
	}{
		{"solve-small", 8, 9.9},   // 27.7
		{"churn-relay", 8, 12.7},  // 29.7
		{"batch-stream", 4, 2.6},  // 3.95
		{"replay-fleet", 2, 1.10}, // 1.11
	} {
		sum := 0.0
		for s := 1; s <= tc.seeds; s++ {
			sum += callsPerThread(shapeInstance(tc.shape, uint64(s)))
		}
		got := sum / float64(tc.seeds)
		t.Logf("%s: %.3f calls per thread", tc.shape, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.3f InverseDeriv calls per thread, ceiling %v", tc.shape, got, tc.ceiling)
		}
	}
}

// shapeInstance draws an instance of one perfbench workload's shape:
// solve-small's uniform n = 100 requests, churn-relay's two-point
// instances at a per-instance scale, and the power-law instances of
// batch-stream (n = 10⁴) and replay-fleet (n = 10⁵).
func shapeInstance(shape string, seed uint64) *core.Instance {
	r := rng.New(seed)
	var dist gen.Dist
	m, n := 8, 100
	switch shape {
	case "solve-small":
		dist = gen.DefaultUniform
	case "churn-relay":
		dist, m, n = gen.Discrete{L: r.Uniform(0.5, 2), Gamma: 0.5, Theta: 4}, 16, 1000
	case "batch-stream":
		dist, m, n = gen.PowerLaw{Alpha: 2, Xmin: 1}, 64, 10_000
	case "replay-fleet":
		dist, m, n = gen.PowerLaw{Alpha: 2, Xmin: 1}, 64, 100_000
	default:
		panic(fmt.Sprintf("unknown shape %q", shape))
	}
	in, err := gen.Instance(dist, m, 1000, n, r)
	if err != nil {
		panic(err)
	}
	return in
}
