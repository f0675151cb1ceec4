// Package check is the repository's verification layer: invariant checks
// that a solver's output is feasible, approximation-ratio checks against
// the paper's proven guarantee F ≥ α·F̂ with α = 2(√2−1) (Theorems V.5
// and V.6), and a differential harness that cross-checks every solver
// against independent ground truths on small instances.
//
// Checking is opt-in. The process-wide switch (Enable / AA_CHECK=1 /
// the CLIs' -check flag) turns on post-solve verification in the engine
// pipeline, the experiment harness and the online simulator; library callers
// can also invoke the checks directly. Every check outcome is counted in
// the aa_check_total / aa_check_violations_total telemetry counters, so
// a long -check run can assert "zero violations" from /metrics alone.
//
// Tolerance policy: feasibility comparisons use a relative ε
// (DefaultEps = 1e-6) scaled by the magnitude being compared — an
// allocation may exceed its cap by ε·(1+cap) and a server load may reach
// C·(1+ε)+ε — because allocations come out of float64 bisection, not
// exact arithmetic. Ratio comparisons use DefaultRatioEps against the
// α guarantee; α itself is exact in float64 (2·(√2−1)) while F and F̂
// each carry bisection error, so the slack covers both.
package check

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"aa/internal/core"
	"aa/internal/telemetry"
	"aa/internal/utility"
)

const (
	// DefaultEps is the relative feasibility tolerance used by every
	// -check path in the repository.
	DefaultEps = 1e-6
	// DefaultRatioEps is the slack applied to approximation-ratio
	// comparisons (both the α lower bound and the F ≤ F̂ upper bound).
	DefaultRatioEps = 1e-6
)

// Typed sentinels: every violation error wraps one of these, so callers
// can classify failures with errors.Is regardless of the wrapped detail.
var (
	// ErrInfeasible marks a solution that violates a hard constraint:
	// a negative or NaN allocation, an allocation past its thread's cap,
	// an over-full server, or a thread placed on an invalid server.
	ErrInfeasible = errors.New("check: infeasible assignment")
	// ErrRatio marks a violation of a proven bound: F below the α
	// guarantee for Assign1/Assign2, or any solver's F above the
	// super-optimal bound F̂.
	ErrRatio = errors.New("check: approximation-ratio violation")
	// ErrDifferential marks a cross-solver mismatch found by the
	// differential harness (e.g. a heuristic beating the exact optimum,
	// or Concave falling below the unit-greedy ground truth).
	ErrDifferential = errors.New("check: differential mismatch")
)

// enabled is the process-wide opt-in switch, mirroring
// telemetry.Enable's atomic-bool pattern.
var enabled atomic.Bool

// Enable turns on process-wide post-solve checking in the engine
// pipeline, the experiment harness and the online simulator.
func Enable() { enabled.Store(true) }

// Disable turns process-wide checking back off.
func Disable() { enabled.Store(false) }

// Enabled reports whether process-wide checking is on.
func Enabled() bool { return enabled.Load() }

// The check counters are registered eagerly so they appear on /metrics
// (at zero) even before the first check runs. They are incremented
// unconditionally — checking is opt-in, so there is no hot path to
// protect with telemetry.Enabled.
var (
	checksTotal     = telemetry.Default.Counter("aa_check_total")
	violationsTotal = telemetry.Default.Counter("aa_check_violations_total")
)

// Totals returns the process-wide number of checks performed and
// violations found so far (the aa_check_total and
// aa_check_violations_total counters).
func Totals() (checks, violations uint64) {
	return checksTotal.Value(), violationsTotal.Value()
}

// record counts one check outcome into the telemetry counters and
// passes the error through.
func record(err error) error {
	checksTotal.Inc()
	if err != nil {
		violationsTotal.Inc()
	}
	return err
}

// Feasible verifies the hard constraints of the AA problem (§II) for an
// assignment: every thread placed on a valid server, every allocation
// finite, ≥ 0 and at most min(Cap, C) — note this is stricter than
// core.Assignment.Validate, which only bounds allocations by C — and
// every server's load at most C(1+ε). It returns nil or an error
// wrapping ErrInfeasible, and counts the outcome in the aa_check_*
// metrics. eps ≤ 0 falls back to DefaultEps.
func Feasible(in *core.Instance, a core.Assignment, eps float64) error {
	return record(feasible(in, a, eps))
}

// ProbeFeasible is Feasible without the aa_check_* accounting — for
// callers probing a candidate solution they will recover from rejecting
// (the engine's warm-start repair path) rather than verifying a final
// answer: a probe failure is handled by falling back to a cold solve,
// so it must not surface as a violation in a "zero violations" run.
func ProbeFeasible(in *core.Instance, a core.Assignment, eps float64) error {
	return feasible(in, a, eps)
}

func feasible(in *core.Instance, a core.Assignment, eps float64) error {
	if eps <= 0 {
		eps = DefaultEps
	}
	n := in.N()
	if len(a.Server) != n || len(a.Alloc) != n {
		return fmt.Errorf("%w: assignment covers %d servers / %d allocs for %d threads",
			ErrInfeasible, len(a.Server), len(a.Alloc), n)
	}
	loads := make([]float64, in.M)
	for i, x := range a.Alloc {
		s := a.Server[i]
		if s < 0 || s >= in.M {
			return fmt.Errorf("%w: thread %d on invalid server %d (m = %d)", ErrInfeasible, i, s, in.M)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: thread %d allocation is %v", ErrInfeasible, i, x)
		}
		if x < -eps*(1+in.C) {
			return fmt.Errorf("%w: thread %d allocation %v is negative", ErrInfeasible, i, x)
		}
		c := in.Threads[i].Cap()
		if c > in.C {
			c = in.C
		}
		if x > c+eps*(1+c) {
			return fmt.Errorf("%w: thread %d allocated %v past its cap %v", ErrInfeasible, i, x, c)
		}
		loads[s] += x
	}
	for j, load := range loads {
		if load > in.C*(1+eps)+eps {
			return fmt.Errorf("%w: server %d load %v exceeds C(1+ε) = %v",
				ErrInfeasible, j, load, in.C*(1+eps))
		}
	}
	return nil
}

// Allocation verifies the single-knapsack invariants of an allocation
// vector (the internal/alloc contract): finite, ≥ 0, per-thread caps,
// and Σ x_i ≤ budget(1+ε). Used by the fuzz targets and the
// differential harness directly against alloc.Concave / alloc.Greedy
// output. eps ≤ 0 falls back to DefaultEps.
func Allocation(fs []utility.Func, xs []float64, budget, eps float64) error {
	return record(allocation(fs, xs, budget, eps))
}

func allocation(fs []utility.Func, xs []float64, budget, eps float64) error {
	if eps <= 0 {
		eps = DefaultEps
	}
	if len(xs) != len(fs) {
		return fmt.Errorf("%w: %d allocations for %d utilities", ErrInfeasible, len(xs), len(fs))
	}
	sum := 0.0
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: allocation %d is %v", ErrInfeasible, i, x)
		}
		if x < -eps*(1+budget) {
			return fmt.Errorf("%w: allocation %d is negative (%v)", ErrInfeasible, i, x)
		}
		c := fs[i].Cap()
		if x > c+eps*(1+c) {
			return fmt.Errorf("%w: allocation %d is %v, past its cap %v", ErrInfeasible, i, x, c)
		}
		sum += x
	}
	if sum > budget*(1+eps)+eps {
		return fmt.Errorf("%w: allocations sum to %v, past the budget %v", ErrInfeasible, sum, budget)
	}
	return nil
}

// RatioReport is the outcome of comparing an assignment's utility F
// against the super-optimal bound F̂ (Definition V.1).
type RatioReport struct {
	// F is the assignment's total utility.
	F float64
	// FHat is the super-optimal bound F̂ it is measured against.
	FHat float64
	// Ratio is F/F̂ (1 when both are zero, +Inf when only F̂ is).
	Ratio float64
}

// Ratio computes F/F̂ for the assignment against a freshly computed
// super-optimal bound. When the bound is already at hand (the experiment
// harness computes it once per trial), use RatioAgainst instead.
func Ratio(in *core.Instance, a core.Assignment) RatioReport {
	return RatioAgainst(core.SuperOptimal(in).Total, in, a)
}

// RatioAgainst computes F/F̂ against a caller-supplied bound.
func RatioAgainst(fhat float64, in *core.Instance, a core.Assignment) RatioReport {
	f := a.Utility(in)
	ratio := 1.0
	switch {
	case fhat != 0:
		ratio = f / fhat
	case f != 0:
		ratio = math.Inf(1)
	}
	return RatioReport{F: f, FHat: fhat, Ratio: ratio}
}

// CheckBound verifies the one bound every solver must respect: F cannot
// exceed F̂, because F̂ pools all m servers into one (Lemma V.2). It
// returns nil or an error wrapping ErrRatio, counted in the aa_check_*
// metrics. eps ≤ 0 falls back to DefaultRatioEps.
func (r RatioReport) CheckBound(eps float64) error {
	if eps <= 0 {
		eps = DefaultRatioEps
	}
	return record(r.checkBound(eps))
}

func (r RatioReport) checkBound(eps float64) error {
	if r.F > r.FHat*(1+eps)+eps {
		return fmt.Errorf("%w: F = %v exceeds the super-optimal bound F̂ = %v", ErrRatio, r.F, r.FHat)
	}
	return nil
}

// CheckAlpha verifies the full guarantee for Assign1/Assign2 (and
// anything built on top of them, e.g. polish or local search, which only
// increase F): α·F̂ ≤ F ≤ F̂ with α = 2(√2−1). Heuristics without a
// proven lower bound should use CheckBound instead. eps ≤ 0 falls back
// to DefaultRatioEps.
func (r RatioReport) CheckAlpha(eps float64) error {
	if eps <= 0 {
		eps = DefaultRatioEps
	}
	return record(r.probeAlpha(eps))
}

// ProbeAlpha is CheckAlpha without the aa_check_* accounting, for the
// same recover-on-failure callers as ProbeFeasible. eps ≤ 0 falls back
// to DefaultRatioEps.
func (r RatioReport) ProbeAlpha(eps float64) error {
	if eps <= 0 {
		eps = DefaultRatioEps
	}
	return r.probeAlpha(eps)
}

func (r RatioReport) probeAlpha(eps float64) error {
	err := r.checkBound(eps)
	if err == nil && r.F < (core.Alpha-eps)*r.FHat {
		err = fmt.Errorf("%w: F/F̂ = %v below the guarantee α = %v (F = %v, F̂ = %v)",
			ErrRatio, r.Ratio, core.Alpha, r.F, r.FHat)
	}
	return err
}
