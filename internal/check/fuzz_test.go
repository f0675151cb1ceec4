package check

import (
	"context"
	"math"
	"testing"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// FuzzFeasibleConcave fuzzes the λ-bisection allocator with thread sets
// drawn from the gen figure corpus plus one adversarially steep linear
// thread (the shape that used to drive the doubling search past its
// 1e18 ceiling and return an over-budget allocation), asserting the
// alloc-level invariants on every output.
func FuzzFeasibleConcave(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), 0.5)
	f.Add(uint64(7), uint8(6), uint8(2), 0.1)
	f.Add(uint64(42), uint8(1), uint8(3), 3.0)
	f.Add(uint64(9), uint8(5), uint8(1), 1e9)
	f.Fuzz(func(t *testing.T, seed uint64, n, distPick uint8, budgetScale float64) {
		if math.IsNaN(budgetScale) || math.IsInf(budgetScale, 0) ||
			budgetScale <= 0 || budgetScale > 1e12 {
			t.Skip()
		}
		const c = 100.0
		r := rng.New(seed)
		workloads := FigureWorkloads()
		dist := workloads[int(distPick)%len(workloads)].Dist
		fs := make([]utility.Func, 0, int(n%8)+2)
		for i := 0; i < 1+int(n%8); i++ {
			fn, err := gen.Thread(dist, c, r)
			if err != nil {
				t.Skip()
			}
			fs = append(fs, fn)
		}
		// The steep thread: slopes up to ~2^40 × budgetScale reach past
		// the doubling ceiling and exercise the renormalization path.
		fs = append(fs, utility.Linear{Slope: math.Ldexp(1+budgetScale, 40), C: c})
		budget := budgetScale * c
		res := alloc.Concave(fs, budget)
		if err := Allocation(fs, res.Alloc, budget, DefaultEps); err != nil {
			t.Fatalf("budget %v, %d threads: %v", budget, len(fs), err)
		}
	})
}

// FuzzDifferentialAssign fuzzes the assignment pipeline on small gen
// instances: Assign1/Assign2 must be feasible and honor α·F̂ ≤ F ≤ F̂,
// neither may beat the branch-and-bound exact optimum, the heap-based
// Assign1 must match the quadratic reference bit for bit, and the pruned
// λ-bisection must agree with the unpruned reference water-filling.
func FuzzDifferentialAssign(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(5), uint8(0))
	f.Add(uint64(3), uint8(3), uint8(6), uint8(2))
	f.Add(uint64(11), uint8(1), uint8(1), uint8(4))
	f.Add(uint64(99), uint8(2), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, m, n, distPick uint8) {
		const c = 100.0
		r := rng.New(seed)
		workloads := FigureWorkloads()
		in, err := gen.Instance(workloads[int(distPick)%len(workloads)].Dist,
			1+int(m%3), c, 1+int(n%6), r)
		if err != nil {
			t.Skip()
		}
		so := core.SuperOptimal(in)
		gs := core.Linearize(in, so)
		a1 := core.Assign1Linearized(in, gs)
		a2 := core.Assign2Linearized(in, gs)
		refA1 := Assign1LinearizedRef(in, gs)
		for i := range refA1.Server {
			if a1.Server[i] != refA1.Server[i] || a1.Alloc[i] != refA1.Alloc[i] {
				t.Fatalf("thread %d: fast Assign1 (%d,%v) != reference (%d,%v)",
					i, a1.Server[i], a1.Alloc[i], refA1.Server[i], refA1.Alloc[i])
			}
		}
		// gen threads are capped at C, so SuperOptimal's capping wrapper is
		// a no-op and ConcaveRef over the raw threads is the same problem.
		refSO := ConcaveRef(in.Threads, float64(in.M)*in.C)
		if d := math.Abs(so.Total - refSO.Total); d > 1e-7*(1+math.Abs(refSO.Total)) {
			t.Fatalf("pruned super-optimal total %v != unpruned reference %v", so.Total, refSO.Total)
		}
		for _, tc := range []struct {
			label string
			a     core.Assignment
		}{{"a1", a1}, {"a2", a2}} {
			if err := Feasible(in, tc.a, DefaultEps); err != nil {
				t.Fatalf("%s: %v", tc.label, err)
			}
			if err := RatioAgainst(so.Total, in, tc.a).CheckAlpha(0); err != nil {
				t.Fatalf("%s: %v", tc.label, err)
			}
		}
		exact, err := core.BranchAndBound(context.Background(), in, 0)
		if err != nil {
			t.Skip() // node budget exhausted: nothing to compare against
		}
		if err := Feasible(in, exact, DefaultEps); err != nil {
			t.Fatalf("exact: %v", err)
		}
		fExact := exact.Utility(in)
		tol := 1e-6 * (1 + math.Abs(fExact))
		if u := a1.Utility(in); u > fExact+tol {
			t.Fatalf("a1 utility %v beats the exact optimum %v", u, fExact)
		}
		if u := a2.Utility(in); u > fExact+tol {
			t.Fatalf("a2 utility %v beats the exact optimum %v", u, fExact)
		}
	})
}
