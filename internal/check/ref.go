package check

import (
	"math"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/utility"
)

// ConcaveRef is the unpruned reference water-filling allocator: every
// λ-probe re-evaluates every thread's inverse derivative. It is the
// implementation alloc.Concave had before the pruned fast path and is
// retained as the oracle of Differential, the alloc differential tests
// and the before/after benchmarks; production callers use alloc.Concave
// or alloc.ConcaveWith.
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
		// matching comment in alloc's concave).
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

// Assign1LinearizedRef is core.Assign1Linearized on the O(mn²)
// reference implementation — the textbook transcription of the paper's
// pseudocode. It is the oracle for differential tests of the heap-based
// fast path and the "before" side of its benchmarks; solve paths use
// core.Assign1.
//
// Its per-pass scans pick, among the unassigned threads, the full
// candidate maximizing g(ĉ) — or, when none fits, the thread maximizing
// the utility of the fullest server's leftovers R. For that second pick it
// compares ramp slopes rather than the values g_i(R): with ĉ_i > R ≥ 0
// every candidate's value is slope_i·R, so the ranking is the same, but
// comparing slopes directly cannot disagree with the fast path over a
// rounding flip in the multiplication by R (and when R = 0 every remaining
// thread receives zero on the same server, so any pick order yields the
// identical assignment).
func Assign1LinearizedRef(in *core.Instance, gs []core.Linearized) core.Assignment {
	n, m := in.N(), in.M
	out := core.NewAssignment(n)
	residual := make([]float64, m)
	for j := range residual {
		residual[j] = in.C
	}
	assigned := make([]bool, n)

	for remaining := n; remaining > 0; remaining-- {
		// Phase 1 candidate: unassigned thread with the greatest g_i(ĉ_i)
		// among those whose ĉ_i still fits on some server. Track the
		// fullest feasible server for the tie-breaking placement.
		bestFull, bestFullServer := -1, -1
		var bestFullVal float64
		// Phase 2 candidate: pair (i, j) maximizing g_i(C_j); since no
		// server fits ĉ_i, g_i(C_j) = slope_i · C_j, maximized at the
		// fullest server, so only the fullest server matters per thread.
		maxServer, maxResidual := 0, residual[0]
		for j := 1; j < m; j++ {
			if residual[j] > maxResidual {
				maxServer, maxResidual = j, residual[j]
			}
		}
		bestPartial := -1
		var bestPartialVal float64

		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			g := gs[i]
			if g.CHat <= maxResidual {
				// Thread fits somewhere (in particular on maxServer).
				if bestFull < 0 || g.UHat > bestFullVal {
					bestFull, bestFullVal, bestFullServer = i, g.UHat, maxServer
				}
				continue
			}
			if v := g.Slope(); bestPartial < 0 || v > bestPartialVal {
				bestPartial, bestPartialVal = i, v
			}
		}

		var pick, server int
		var amount float64
		if bestFull >= 0 {
			pick, server, amount = bestFull, bestFullServer, gs[bestFull].CHat
		} else {
			pick, server, amount = bestPartial, maxServer, maxResidual
		}
		assigned[pick] = true
		out.Server[pick] = server
		out.Alloc[pick] = amount
		residual[server] -= amount
		if residual[server] < 0 {
			residual[server] = 0 // float guard
		}
	}
	return out
}
