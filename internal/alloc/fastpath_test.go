package alloc_test

// Differential tests for the pruned water-filling fast path: ConcaveWith
// on a reused Scratch and destination must be byte-identical with
// Concave (same code, pooled scratch), and both must agree with the retained unpruned reference
// ConcaveRef up to bisection tolerance, across the six figure workload
// distributions of the paper's evaluation.

import (
	"math"
	"testing"

	"aa/internal/alloc"
	"aa/internal/check"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// corpusThreads draws a thread set from every figure workload crossed
// with a few sizes, handing each (workload, n, trial) to fn.
func corpusThreads(t *testing.T, fn func(label string, fs []utility.Func, c float64)) {
	t.Helper()
	const c = 100.0
	r := rng.New(20260806)
	for _, w := range check.FigureWorkloads() {
		for _, n := range []int{1, 2, 7, 40} {
			for trial := 0; trial < 3; trial++ {
				fs := make([]utility.Func, n)
				for i := range fs {
					f, err := gen.Thread(w.Dist, c, r)
					if err != nil {
						t.Fatalf("%s: gen.Thread: %v", w.Name, err)
					}
					fs[i] = f
				}
				fn(w.Name, fs, c)
			}
		}
	}
}

// budgets spans the regimes the allocator distinguishes: cap-starved,
// tight, generous, and beyond Σ caps (the trivial path).
func budgets(fs []utility.Func) []float64 {
	capSum := 0.0
	for _, f := range fs {
		capSum += f.Cap()
	}
	return []float64{1e-6 * capSum, 0.25 * capSum, 0.8 * capSum, capSum, 1.5 * capSum}
}

// TestConcaveWithMatchesConcave: reusing a dirty Scratch and destination
// slice across solves yields bit-for-bit the allocation a fresh Concave
// call produces.
func TestConcaveWithMatchesConcave(t *testing.T) {
	var sc alloc.Scratch
	dst := []float64{} // grown on first use, then reused dirty
	corpusThreads(t, func(label string, fs []utility.Func, c float64) {
		for _, budget := range budgets(fs) {
			want := alloc.Concave(fs, budget)
			got := alloc.ConcaveWith(&sc, dst, fs, budget)
			dst = got.Alloc // keep the dirty buffer for the next solve
			if got.Total != want.Total || got.Lambda != want.Lambda ||
				got.Iterations != want.Iterations {
				t.Fatalf("%s n=%d budget=%g: ConcaveWith result (%v,%v,%d) != Concave (%v,%v,%d)",
					label, len(fs), budget, got.Total, got.Lambda, got.Iterations,
					want.Total, want.Lambda, want.Iterations)
			}
			for i := range want.Alloc {
				if got.Alloc[i] != want.Alloc[i] {
					t.Fatalf("%s n=%d budget=%g thread %d: ConcaveWith %v != Concave %v",
						label, len(fs), budget, i, got.Alloc[i], want.Alloc[i])
				}
			}
		}
	})
}

// TestConcaveWithGrowsShortDst covers the resize rule: a dst with
// insufficient capacity is replaced, one with spare capacity is reused in
// place and truncated to n.
func TestConcaveWithGrowsShortDst(t *testing.T) {
	fs := []utility.Func{
		utility.Linear{Slope: 2, C: 10},
		utility.Log{Scale: 3, Shift: 1, C: 10},
		utility.Power{Scale: 1, Beta: 0.5, C: 10},
	}
	var sc alloc.Scratch
	short := make([]float64, 1)
	res := alloc.ConcaveWith(&sc, short, fs, 12)
	if len(res.Alloc) != len(fs) {
		t.Fatalf("grown dst has length %d, want %d", len(res.Alloc), len(fs))
	}
	long := make([]float64, 8)
	for i := range long {
		long[i] = math.NaN() // poison: stale entries must all be overwritten
	}
	res2 := alloc.ConcaveWith(&sc, long, fs, 12)
	if len(res2.Alloc) != len(fs) {
		t.Fatalf("truncated dst has length %d, want %d", len(res2.Alloc), len(fs))
	}
	if &long[0] != &res2.Alloc[0] {
		t.Fatal("dst with spare capacity was not reused in place")
	}
	for i := range res2.Alloc {
		if res.Alloc[i] != res2.Alloc[i] {
			t.Fatalf("thread %d: grown %v != reused %v", i, res.Alloc[i], res2.Alloc[i])
		}
	}
}

// TestConcaveMatchesRef checks the pruned bisection against the unpruned
// reference. The two walk nearly identical λ brackets (settled threads
// change only the floating-point summation order), so totals must agree
// essentially exactly and allocations to well under the budget scale.
func TestConcaveMatchesRef(t *testing.T) {
	corpusThreads(t, func(label string, fs []utility.Func, c float64) {
		for _, budget := range budgets(fs) {
			got := alloc.Concave(fs, budget)
			want := check.ConcaveRef(fs, budget)
			if math.Abs(got.Total-want.Total) > 1e-7*(1+math.Abs(want.Total)) {
				t.Fatalf("%s n=%d budget=%g: pruned total %v, reference total %v",
					label, len(fs), budget, got.Total, want.Total)
			}
			sumGot, sumWant := 0.0, 0.0
			for i := range want.Alloc {
				sumGot += got.Alloc[i]
				sumWant += want.Alloc[i]
				if math.Abs(got.Alloc[i]-want.Alloc[i]) > 1e-6*(1+budget) {
					t.Fatalf("%s n=%d budget=%g thread %d: pruned %v, reference %v",
						label, len(fs), budget, i, got.Alloc[i], want.Alloc[i])
				}
			}
			if math.Abs(sumGot-sumWant) > 1e-9*(1+budget) {
				t.Fatalf("%s n=%d budget=%g: pruned spends %v, reference spends %v",
					label, len(fs), budget, sumGot, sumWant)
			}
			if err := check.Allocation(fs, got.Alloc, budget, check.DefaultEps); err != nil {
				t.Fatalf("%s n=%d budget=%g: pruned allocation infeasible: %v",
					label, len(fs), budget, err)
			}
		}
	})
}

// TestConcavePrunedPlateauRedistribution exercises the plateau path with
// settled threads present: piecewise-linear utilities whose derivative is
// constant over long stretches, mixed with a steep thread that settles at
// cap early and a hopeless one that settles at zero.
func TestConcavePrunedPlateauRedistribution(t *testing.T) {
	pl := func(xs, ys []float64) utility.Func {
		f, err := utility.NewPiecewiseLinear(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fs := []utility.Func{
		utility.Linear{Slope: 100, C: 2}, // settles at cap on the first feasible probe
		pl([]float64{0, 5, 10}, []float64{0, 10, 15}),
		pl([]float64{0, 4, 10}, []float64{0, 8, 12.8}),
		utility.Linear{Slope: 1e-9, C: 10}, // priced out immediately
	}
	for _, budget := range []float64{3, 7, 12, 20, 31} {
		got := alloc.Concave(fs, budget)
		want := check.ConcaveRef(fs, budget)
		for i := range want.Alloc {
			if math.Abs(got.Alloc[i]-want.Alloc[i]) > 1e-6*(1+budget) {
				t.Fatalf("budget=%g thread %d: pruned %v, reference %v",
					budget, i, got.Alloc[i], want.Alloc[i])
			}
		}
		if math.Abs(got.Total-want.Total) > 1e-9*(1+want.Total) {
			t.Fatalf("budget=%g: pruned total %v, reference total %v", budget, got.Total, want.Total)
		}
	}
}

// TestConcaveWithGrowingAllocs is the allocator half of the growth
// contract: a caller-owned Scratch and destination re-solving a thread
// set that gains one thread per call regrow with amortized headroom, so
// ConcaveWith averages zero allocations per call.
func TestConcaveWithGrowingAllocs(t *testing.T) {
	const c, start, runs = 100.0, 1000, 200
	r := rng.New(18)
	fs := make([]utility.Func, start+runs+2)
	for i := range fs {
		f, err := gen.Thread(gen.PowerLaw{Alpha: 2, Xmin: 1}, c, r)
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	var sc alloc.Scratch
	var dst []float64
	n := start
	solve := func() {
		res := alloc.ConcaveWith(&sc, dst, fs[:n], 0.25*c*float64(n))
		dst = res.Alloc
		n++
	}
	solve() // size the buffers
	if allocs := testing.AllocsPerRun(runs, solve); allocs != 0 {
		t.Fatalf("growing ConcaveWith allocates %v per op, want 0", allocs)
	}
	if len(dst) != n-1 {
		t.Fatalf("last solve wrote %d amounts, want %d", len(dst), n-1)
	}
}
