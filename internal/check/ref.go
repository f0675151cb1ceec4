package check

import (
	"math"

	"aa/internal/alloc"
	"aa/internal/utility"
)

// ConcaveRef is the unpruned reference water-filling allocator: every
// λ-probe re-evaluates every thread's inverse derivative. It is the
// implementation alloc.Concave had before the pruned fast path and is
// retained as the oracle of Differential, the alloc differential tests
// and the before/after benchmarks; production callers use alloc.Concave
// or alloc.ConcaveInto.
func ConcaveRef(fs []utility.Func, budget float64) alloc.Result {
	n := len(fs)
	x := make([]float64, n)
	if n == 0 || budget <= 0 {
		return alloc.Result{Alloc: x}
	}

	// Trivial case: budget covers every cap.
	capSum := 0.0
	for _, f := range fs {
		capSum += f.Cap()
	}
	if capSum <= budget {
		for i, f := range fs {
			x[i] = f.Cap()
		}
		return alloc.Result{Alloc: x, Total: alloc.TotalValue(fs, x)}
	}

	// Find hi with sumAt(hi) <= budget by doubling. λ = 0 gives capSum >
	// budget, so the optimal λ is positive.
	iterations := 0
	lo, hi := 0.0, 1.0
	for sumAt(fs, hi, x) > budget {
		iterations++
		lo = hi
		hi *= 2
		if hi > 1e18 {
			break // derivatives are astronomically steep; give up doubling
		}
	}

	// Bisect λ. 100 iterations gives ~2^-100 relative precision, far past
	// float64; we stop early once the interval is negligible.
	for iter := 0; iter < 200 && hi-lo > 1e-15*(1+hi); iter++ {
		iterations++
		mid := 0.5 * (lo + hi)
		if sumAt(fs, mid, x) > budget {
			lo = mid
		} else {
			hi = mid
		}
	}

	// Use the feasible end (λ = hi ⇒ sum <= budget), then hand out any
	// remaining budget to plateau threads: those that would take more at
	// λ = lo. Giving them the leftovers is optimal because their marginal
	// utility in the gap is exactly the water level.
	sum := sumAt(fs, hi, x)
	if sum > budget {
		// The doubling search gave up: scale back onto the budget (see the
		// matching comment in alloc.ConcaveInto).
		scale := budget / sum
		for i := range x {
			x[i] *= scale
		}
		return alloc.Result{Alloc: x, Total: alloc.TotalValue(fs, x), Lambda: hi, Iterations: iterations}
	}
	remaining := budget - sum
	if remaining > 0 {
		for i, f := range fs {
			if remaining <= 1e-12*budget {
				break
			}
			more := utility.InverseDeriv(f, lo, 1e-12) - x[i]
			if more <= 0 {
				continue
			}
			grant := math.Min(more, remaining)
			x[i] += grant
			remaining -= grant
		}
	}
	return alloc.Result{Alloc: x, Total: alloc.TotalValue(fs, x), Lambda: hi, Iterations: iterations}
}

// sumAt returns Σ_i InverseDeriv(f_i, λ) and fills x.
func sumAt(fs []utility.Func, lambda float64, x []float64) float64 {
	sum := 0.0
	for i, f := range fs {
		x[i] = utility.InverseDeriv(f, lambda, 1e-12)
		sum += x[i]
	}
	return sum
}
