package core_test

import (
	"math"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// TestSuperOptimalPlateauAnswer pins the super-optimal answer where S(λ)
// = Σ ĉ_i(λ) jumps at the price. On the Figure 3(b) workload at θ = 5
// most threads are one straight line, λ* is its slope, and the budget
// covers only some of those threads. A straight PCHIP line has two
// segment slopes a few ULPs apart, so a search that stops between them
// gives half of every straight thread's amount to twice as many
// threads: F̂ is unchanged, but Algorithm 2 then packs worse. The answer
// must be the reference bisection's: straight threads at 0 or C but for
// the one the plateau pass leaves the remainder to, every allocation as
// check.ConcaveRef's, and Algorithm 2's utility the one it gets from
// ConcaveRef's allocation.
func TestSuperOptimalPlateauAnswer(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		f    float64 // Assign2's utility
	}{{188, 83.393025519901727}, {302, 83.39302551990221}} {
		in, err := gen.Instance(gen.Discrete{L: 1, Gamma: 0.05, Theta: 5}, 8, 1000, 40, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		budget := float64(in.M) * in.C
		so := core.SuperOptimal(in)
		ref := check.ConcaveRef(in.Threads, budget)
		refSO := core.SuperOpt{Alloc: ref.Alloc, Value: make([]float64, in.N())}
		straight, partial := 0, 0
		for i, f := range in.Threads {
			refSO.Value[i] = f.Value(ref.Alloc[i])
			if _, ys := f.(*utility.Sampled).Knots(); ys[2] == 2*ys[1] {
				straight++
				if c := so.Alloc[i]; c != 0 && c != in.C {
					partial++
				}
			}
			if d := math.Abs(so.Alloc[i] - ref.Alloc[i]); d > 1e-6*(1+budget) {
				t.Errorf("seed %d thread %d: ĉ = %v, reference %v", tc.seed, i, so.Alloc[i], ref.Alloc[i])
			}
		}
		if straight <= in.M {
			t.Fatalf("seed %d: %d straight threads, want more than m = %d", tc.seed, straight, in.M)
		}
		if partial > 1 {
			t.Errorf("seed %d: %d straight threads strictly between 0 and C", tc.seed, partial)
		}
		got := core.Assign2(in).Utility(in)
		want := core.Assign2Linearized(in, core.Linearize(in, refSO)).Utility(in)
		if got != want || got != tc.f {
			t.Errorf("seed %d: Assign2 utility %.17g, %.17g on the reference allocation, pinned %.17g", tc.seed, got, want, tc.f)
		}
	}
}
