package alloc_test

// Tests for the warm-started water-filling search: seeded with a λ hint
// from a previous solve, ConcaveValuesWith must match the cold solver's
// value up to bisection tolerance on the figure corpus — whether the
// hint is exact, perturbed, or garbage (the fall-through path).

import (
	"math"
	"testing"

	"aa/internal/alloc"
	"aa/internal/check"
	"aa/internal/utility"
)

// concaveWarm is the warm-started solve on a fresh Scratch. It also
// checks the values contract: vals[i] = f_i(Alloc[i]) and Total is their
// index-order sum.
func concaveWarm(t *testing.T, fs []utility.Func, budget, hint float64) alloc.Result {
	t.Helper()
	res, vals := alloc.ConcaveValuesWith(new(alloc.Scratch), nil, nil, fs, budget, hint)
	sum := 0.0
	for i, f := range fs {
		if v := f.Value(res.Alloc[i]); vals[i] != v {
			t.Fatalf("hint %v: vals[%d] = %v, want f(alloc) = %v", hint, i, vals[i], v)
		}
		sum += vals[i]
	}
	if len(vals) != len(fs) || (budget > 0 && res.Total != sum) {
		t.Fatalf("hint %v: %d values summing to %v, Total %v", hint, len(vals), sum, res.Total)
	}
	return res
}

// warmAgrees solves cold and warm with the given hint and asserts the
// warm result is feasible and matches the cold total to a relative
// tolerance dominated by the two searches' stopping criteria.
func warmAgrees(t *testing.T, label string, fs []utility.Func, budget, hint float64) {
	t.Helper()
	cold := alloc.Concave(fs, budget)
	warm := concaveWarm(t, fs, budget, hint)
	if err := check.Allocation(fs, warm.Alloc, budget, 0); err != nil {
		t.Fatalf("%s (hint %v): warm allocation infeasible: %v", label, hint, err)
	}
	tol := 1e-6 * (1 + math.Abs(cold.Total))
	if math.Abs(warm.Total-cold.Total) > tol {
		t.Fatalf("%s (hint %v): warm total %v vs cold %v (diff %v > %v)",
			label, hint, warm.Total, cold.Total, warm.Total-cold.Total, tol)
	}
}

func TestConcaveWarmMatchesColdAcrossCorpus(t *testing.T) {
	corpusThreads(t, func(label string, fs []utility.Func, c float64) {
		for _, budget := range budgets(fs) {
			cold := alloc.Concave(fs, budget)
			// Exact hint, and hints bracketing it from both sides — the
			// up-doubling and down-halving bracket paths respectively.
			for _, hint := range []float64{cold.Lambda, cold.Lambda * 4, cold.Lambda / 4} {
				warmAgrees(t, label, fs, budget, hint)
			}
		}
	})
}

func TestConcaveWarmBadHintFallsThrough(t *testing.T) {
	corpusThreads(t, func(label string, fs []utility.Func, c float64) {
		budget := 0.5 * c
		cold := alloc.Concave(fs, budget)
		for _, hint := range []float64{0, -1, math.Inf(1), math.NaN()} {
			warm := concaveWarm(t, fs, budget, hint)
			if len(warm.Alloc) != len(cold.Alloc) {
				t.Fatalf("%s (hint %v): %d allocs, want %d", label, hint, len(warm.Alloc), len(cold.Alloc))
			}
			for i := range warm.Alloc {
				if warm.Alloc[i] != cold.Alloc[i] {
					t.Fatalf("%s (hint %v): fall-through alloc[%d] = %v differs from cold %v",
						label, hint, i, warm.Alloc[i], cold.Alloc[i])
				}
			}
		}
	})
}

func TestConcaveWarmWildHints(t *testing.T) {
	// Hints orders of magnitude off must still converge (the brackets
	// double/halve geometrically), just with more probes.
	corpusThreads(t, func(label string, fs []utility.Func, c float64) {
		budget := 0.5 * c
		for _, hint := range []float64{1e-12, 1e12} {
			warmAgrees(t, label, fs, budget, hint)
		}
	})
}

func TestConcaveWarmCheaperWithExactHint(t *testing.T) {
	// The point of warm starting: an exact hint should need far fewer
	// λ probes than the cold geometric bracket + 1e-15 bisection.
	fs := make([]utility.Func, 0, 400)
	corpusThreads(t, func(label string, fsIn []utility.Func, c float64) {
		if len(fsIn) == 40 && len(fs) < 400 {
			fs = append(fs, fsIn...)
		}
	})
	budget := 0.3 * capSum(fs)
	cold := alloc.Concave(fs, budget)
	warm := concaveWarm(t, fs, budget, cold.Lambda)
	if cold.Iterations == 0 {
		t.Skip("cold solve took the trivial path")
	}
	if warm.Iterations*2 >= cold.Iterations {
		t.Fatalf("warm used %d iterations vs cold %d; want < half", warm.Iterations, cold.Iterations)
	}
}

func capSum(fs []utility.Func) float64 {
	s := 0.0
	for _, f := range fs {
		s += f.Cap()
	}
	return s
}
