package alloc

// The integer water-fill as a test oracle. No solve path runs it (the
// solvers water-fill the continuous relaxation), so it lives here,
// checked against Fox's unit greedy and the exact DP.

import (
	"math"
	"testing"

	"aa/internal/rng"
	"aa/internal/utility"
)

// IntegerWaterfill allocates an integer budget of resource units among
// concave utilities, exactly, in O(n (log C)²) time — the structure of
// Galil's algorithm cited by the paper for computing super-optimal
// allocations: bisection on the marginal value λ, where each thread's
// demand at λ (the largest unit count whose marginal gain is still ≥ λ)
// is found by an inner binary search over the nonincreasing per-unit
// gains, plus an exact completion pass for threads sitting on the final
// marginal plateau.
//
// For concave utilities it returns the same total as Greedy (Fox's
// O(B log n) unit greedy) but its runtime is logarithmic, not linear,
// in the budget — the reason the paper cites it for C = 1000 and beyond.
func IntegerWaterfill(fs []utility.Func, budget int) Result {
	n := len(fs)
	alloc := make([]float64, n)
	if n == 0 || budget <= 0 {
		return Result{Alloc: alloc}
	}

	caps := make([]int, n)
	capSum := 0
	maxGain := 0.0
	for i, f := range fs {
		caps[i] = int(f.Cap())
		capSum += caps[i]
		if g := f.Value(1) - f.Value(0); g > maxGain {
			maxGain = g
		}
	}
	if capSum <= budget {
		for i := range fs {
			alloc[i] = float64(caps[i])
		}
		return Result{Alloc: alloc, Total: TotalValue(fs, alloc)}
	}

	// demand(λ) = largest x ≤ cap with f(x) − f(x−1) ≥ λ, by binary
	// search over the nonincreasing marginal gains.
	demand := func(i int, lambda float64) int {
		f := fs[i]
		lo, hi := 0, caps[i] // invariant: marginal at lo ≥ λ (vacuous at 0)
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if f.Value(float64(mid))-f.Value(float64(mid-1)) >= lambda {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	total := func(lambda float64) int {
		sum := 0
		for i := range fs {
			sum += demand(i, lambda)
		}
		return sum
	}

	// Outer bisection on λ: total(0+) ≥ budget is not guaranteed when
	// some marginals are negative-free plateaus, but total(0) = capSum >
	// budget here; total(maxGain+ε) = 0.
	lo, hi := 0.0, maxGain*(1+1e-12)+1e-300
	for iter := 0; iter < 100 && hi-lo > 1e-15*(1+hi); iter++ {
		mid := 0.5 * (lo + hi)
		if total(mid) > budget {
			lo = mid
		} else {
			hi = mid
		}
	}

	// Feasible base at λ = hi, then hand the leftover units to plateau
	// threads (those demanding more at λ = lo); their next units all
	// have marginal gain within [lo, hi], an interval of width ~1e-15,
	// so any completion is optimal to machine precision.
	remaining := budget
	base := make([]int, n)
	for i := range fs {
		base[i] = demand(i, hi)
		remaining -= base[i]
	}
	for i := range fs {
		if remaining <= 0 {
			break
		}
		extra := demand(i, lo) - base[i]
		if extra <= 0 {
			continue
		}
		if extra > remaining {
			extra = remaining
		}
		base[i] += extra
		remaining -= extra
	}
	for i, b := range base {
		alloc[i] = float64(b)
	}
	return Result{Alloc: alloc, Total: TotalValue(fs, alloc), Lambda: hi}
}

func TestIntegerWaterfillMatchesGreedy(t *testing.T) {
	base := rng.New(51)
	for trial := 0; trial < 15; trial++ {
		r := base.Split(uint64(trial))
		n := 2 + r.Intn(8)
		fs := make([]utility.Func, n)
		for i := range fs {
			switch r.Intn(3) {
			case 0:
				fs[i] = utility.Log{Scale: r.Uniform(1, 5), Shift: r.Uniform(2, 40), C: 500}
			case 1:
				fs[i] = utility.SatExp{Scale: r.Uniform(1, 5), K: r.Uniform(10, 100), C: 500}
			default:
				fs[i] = utility.Power{Scale: r.Uniform(0.5, 2), Beta: r.Uniform(0.3, 0.9), C: 500}
			}
		}
		budget := 50 + r.Intn(800)
		wf := IntegerWaterfill(fs, budget)
		greedy := Greedy(fs, float64(budget), 1)
		if math.Abs(wf.Total-greedy.Total) > 1e-6*(1+greedy.Total) {
			t.Errorf("trial %d (budget %d): waterfill %v != greedy %v",
				trial, budget, wf.Total, greedy.Total)
		}
		// Integer allocations summing to at most the budget.
		sum := 0.0
		for i, a := range wf.Alloc {
			if a != math.Trunc(a) {
				t.Errorf("non-integer allocation %v", a)
			}
			if a < 0 || a > fs[i].Cap() {
				t.Errorf("allocation %v out of range", a)
			}
			sum += a
		}
		if sum > float64(budget) {
			t.Errorf("sum %v > budget %d", sum, budget)
		}
	}
}

func TestIntegerWaterfillTiesExhaustBudget(t *testing.T) {
	// Many identical linear threads: every unit has the same gain; the
	// plateau completion must still hand out the whole budget.
	fs := make([]utility.Func, 7)
	for i := range fs {
		fs[i] = utility.Linear{Slope: 2, C: 100}
	}
	res := IntegerWaterfill(fs, 250)
	sum := 0.0
	for _, a := range res.Alloc {
		sum += a
	}
	if sum != 250 {
		t.Errorf("allocated %v of 250 units", sum)
	}
	if res.Total != 500 {
		t.Errorf("total %v, want 500", res.Total)
	}
}

func TestIntegerWaterfillBudgetCoversCaps(t *testing.T) {
	fs := []utility.Func{
		utility.Linear{Slope: 1, C: 10},
		utility.Linear{Slope: 2, C: 20},
	}
	res := IntegerWaterfill(fs, 100)
	if res.Alloc[0] != 10 || res.Alloc[1] != 20 {
		t.Errorf("alloc %v, want caps", res.Alloc)
	}
}

func TestIntegerWaterfillDegenerate(t *testing.T) {
	if res := IntegerWaterfill(nil, 10); res.Total != 0 {
		t.Error("empty")
	}
	fs := []utility.Func{utility.Linear{Slope: 1, C: 10}}
	if res := IntegerWaterfill(fs, 0); res.Total != 0 {
		t.Error("zero budget")
	}
}

func TestIntegerWaterfillMatchesDPGroundTruth(t *testing.T) {
	fs := []utility.Func{
		utility.Log{Scale: 3, Shift: 5, C: 60},
		utility.CappedLinear{Slope: 0.7, Knee: 25, C: 60},
		utility.SatExp{Scale: 4, K: 15, C: 60},
	}
	for _, budget := range []int{10, 45, 90, 170} {
		wf := IntegerWaterfill(fs, budget)
		dp := DPExact(fs, float64(budget), 1)
		if math.Abs(wf.Total-dp.Total) > 1e-6*(1+dp.Total) {
			t.Errorf("budget %d: waterfill %v != DP %v", budget, wf.Total, dp.Total)
		}
	}
}

// The whole point of the Galil-style algorithm: runtime logarithmic, not
// linear, in the budget.
func BenchmarkIntegerWaterfillBigBudget(b *testing.B) {
	fs := make([]utility.Func, 100)
	for i := range fs {
		fs[i] = utility.Log{Scale: float64(i%7 + 1), Shift: float64(i%13 + 5), C: 1e6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntegerWaterfill(fs, 50_000_000)
	}
}

func BenchmarkGreedyBigBudget(b *testing.B) {
	fs := make([]utility.Func, 100)
	for i := range fs {
		fs[i] = utility.Log{Scale: float64(i%7 + 1), Shift: float64(i%13 + 5), C: 1e6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(fs, 50_000_000, 1000) // coarse units; exact greedy would take minutes
	}
}
