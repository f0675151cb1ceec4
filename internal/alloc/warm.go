package alloc

// warmRelTol is the budget-gap stop criterion of the warm-started
// λ-search: the search ends once the feasible probe leaves at most
// warmRelTol·budget of the budget unallocated (the redistribution pass
// then hands the residue to plateau threads). The cold search instead
// bisects the λ-interval down to float64 noise so repeated cold solves
// are bit-identical; the warm search trades that for far fewer probes,
// which is exactly what the solve cache's repair path wants.
const warmRelTol = 1e-9

// warm is the warm-started λ-search: a geometric bracket around the hint,
// then Illinois-damped false position until the feasible probe is within
// warmRelTol·budget of the budget. It returns the final bracket [lo, hi]
// for the shared endgame; if the upward bracketing gave up (λ > 1e18),
// hi is still over budget and the endgame scales down, as in the cold
// search.
func (p *search) warm(budget, lambdaHint float64) (lo, hi float64, iterations int) {
	tol := warmRelTol * budget
	iterations = 1
	var fLo, fHi, hiSum float64

	// Bracket the optimum geometrically around the hint. Settling follows
	// the same monotonicity argument as the cold search: an over-budget
	// probe only ever precedes probes at λ at least as large (zeros stay
	// zero), a within-budget probe only ever precedes probes at λ no
	// larger (caps stay capped).
	if sum := p.sum(lambdaHint); sum > budget {
		p.settleAtZero()
		lo, fLo = lambdaHint, sum-budget
		hi = lambdaHint * 2
		for {
			iterations++
			s := p.sum(hi)
			if s <= budget {
				hiSum, fHi = s, s-budget
				p.settleAtCap()
				break
			}
			p.settleAtZero()
			lo, fLo = hi, s-budget
			hi *= 2
			if hi > 1e18 {
				return lo, hi, iterations // astronomically steep derivatives; the endgame scales down
			}
		}
	} else {
		hi, hiSum, fHi = lambdaHint, sum, sum-budget
		p.settleAtCap()
		if budget-sum <= tol {
			lo, fLo = hi, fHi // already within tolerance; degenerate bracket
		} else {
			lo = lambdaHint
			for {
				lo /= 2
				if lo < 1e-300 {
					lo = 0
				}
				iterations++
				s := p.sum(lo)
				if s > budget {
					fLo = s - budget
					p.settleAtZero()
					break
				}
				hi, hiSum, fHi = lo, s, s-budget
				p.settleAtCap()
				if lo == 0 {
					fLo = fHi // λ = 0 is feasible: the optimum is the bracket itself
					break
				}
			}
		}
	}

	// Refine by false position with the Illinois damping (halve the
	// retained endpoint's residual when the same side wins twice), which
	// guarantees superlinear convergence where plain secant can stagnate.
	// The stop test uses the true sum at hi, never the damped residuals.
	side := 0
	for iter := 0; iter < 200; iter++ {
		if budget-hiSum <= tol || hi-lo <= 1e-15*(1+hi) {
			break
		}
		var mid float64
		if denom := fLo - fHi; denom > 0 {
			mid = lo + fLo*(hi-lo)/denom
		}
		if !(mid > lo && mid < hi) {
			mid = 0.5 * (lo + hi)
		}
		iterations++
		s := p.sum(mid)
		if f := s - budget; f > 0 {
			lo, fLo = mid, f
			p.settleAtZero()
			if side < 0 {
				fHi *= 0.5
			}
			side = -1
		} else {
			hi, hiSum, fHi = mid, s, f
			p.settleAtCap()
			if side > 0 {
				fLo *= 0.5
			}
			side = +1
		}
	}
	return lo, hi, iterations
}
