package check

import (
	"context"
	"fmt"
	"math"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

// Workload pairs a name with one of the thread-value distributions of
// the paper's §VII evaluation corpus (internal/gen).
type Workload struct {
	Name string
	Dist gen.Dist
}

// FigureWorkloads returns the distribution behind every figure panel of
// the paper's evaluation: uniform (Fig. 1a), truncated normal (Fig. 1b),
// power laws with α = 2 and α = 1.5 (Fig. 2a/2b), and the discrete
// geometric family at θ = 5 and θ = 20 (Fig. 3). The differential
// harness and the property tests iterate over this list so that "checked
// across the figure corpus" means all of them, not a sample.
func FigureWorkloads() []Workload {
	return []Workload{
		{Name: "fig1a-uniform", Dist: gen.DefaultUniform},
		{Name: "fig1b-normal", Dist: gen.DefaultNormal},
		{Name: "fig2a-powerlaw2.0", Dist: gen.PowerLaw{Alpha: 2, Xmin: 1}},
		{Name: "fig2b-powerlaw1.5", Dist: gen.PowerLaw{Alpha: 1.5, Xmin: 1}},
		{Name: "fig3-discrete-theta5", Dist: gen.Discrete{L: 1, Gamma: 0.85, Theta: 5}},
		{Name: "fig3-discrete-theta20", Dist: gen.Discrete{L: 1, Gamma: 0.85, Theta: 20}},
	}
}

// DiffOptions configures the differential harness. The zero value is a
// sensible smoke configuration: a handful of trials per figure workload
// on instances small enough for the exact solver.
type DiffOptions struct {
	Seed     uint64  // base seed for the deterministic rng tree (0 → 1)
	Trials   int     // instances per workload (0 → 8)
	MaxM     int     // server counts drawn from 1..MaxM (0 → 3)
	MaxN     int     // thread counts drawn from 1..MaxN (0 → 7)
	C        float64 // server capacity (0 → 100)
	Eps      float64 // feasibility tolerance (0 → DefaultEps)
	MaxNodes int     // branch-and-bound node budget (0 → core.ExactLimit)
}

// DiffReport summarizes one Differential run.
type DiffReport struct {
	// Workloads, Instances and Solvers count what was covered: figure
	// distributions, generated instances, and solver results
	// cross-checked (several per instance).
	Workloads int
	Instances int
	Solvers   int
	// Violations holds one human-readable line per failed check,
	// prefixed "workload[trial]/solver:". Empty means the run is clean.
	Violations []string
}

// Err returns nil for a clean report, or an error wrapping
// ErrDifferential that carries the first violation.
func (rep *DiffReport) Err() error {
	if len(rep.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d violations, first: %s",
		ErrDifferential, len(rep.Violations), rep.Violations[0])
}

// note records a failed check in the report. The underlying checkers
// already counted the violation in aa_check_violations_total; note only
// captures the text. It reports whether err was non-nil.
func (rep *DiffReport) note(where string, err error) bool {
	if err == nil {
		return false
	}
	rep.Violations = append(rep.Violations, fmt.Sprintf("%s: %v", where, err))
	return true
}

// Differential cross-checks the repository's solvers against independent
// ground truths on small random instances drawn from the figure corpus:
//
//   - every assignment solver (Assign1, Assign2, the marginal-gain
//     greedy, and the four §VII heuristics) against branch-and-bound
//     exact: feasible, at most the exact optimum, and — for
//     Assign1/Assign2 — at least α·F̂;
//   - the λ-search allocator alloc.Concave against Fox's unit-greedy
//     alloc.Greedy at a fixed granularity: both feasible, and Concave
//     within 2% of the greedy ground truth (Concave is exact, so it may
//     only exceed greedy, but the greedy grid quantizes the comparison).
//
// The run is deterministic in opts.Seed. It never fails fast: all
// workloads are covered and every violation is collected in the report.
func Differential(opts DiffOptions) *DiffReport {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Trials == 0 {
		opts.Trials = 8
	}
	if opts.MaxM == 0 {
		opts.MaxM = 3
	}
	if opts.MaxN == 0 {
		opts.MaxN = 7
	}
	if opts.C == 0 {
		opts.C = 100
	}
	if opts.Eps == 0 {
		opts.Eps = DefaultEps
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = core.ExactLimit
	}

	rep := &DiffReport{}
	base := rng.New(opts.Seed)
	for wi, w := range FigureWorkloads() {
		rep.Workloads++
		for t := 0; t < opts.Trials; t++ {
			r := base.SplitPath(uint64(wi), uint64(t))
			m := 1 + r.Intn(opts.MaxM)
			n := 1 + r.Intn(opts.MaxN)
			in, err := gen.Instance(w.Dist, m, opts.C, n, r)
			where := fmt.Sprintf("%s[%d]", w.Name, t)
			if err != nil {
				rep.note(where, record(fmt.Errorf("generator: %w", err)))
				continue
			}
			rep.Instances++
			rep.checkInstance(where, in, r, opts)
		}
	}
	return rep
}

// checkInstance runs every cross-check on one generated instance.
func (rep *DiffReport) checkInstance(where string, in *core.Instance, r *rng.Rand, opts DiffOptions) {
	exact, err := core.BranchAndBound(context.TODO(), in, opts.MaxNodes)
	if err != nil {
		// Instances here are sized for the exact solver; running out of
		// nodes means the harness could not verify, which the smoke job
		// must surface rather than skip.
		rep.note(where+"/exact", record(fmt.Errorf("branch and bound: %w", err)))
		return
	}
	fExact := exact.Utility(in)
	rep.note(where+"/exact", Feasible(in, exact, opts.Eps))

	so := core.SuperOptimal(in)
	rep.note(where+"/exact", RatioAgainst(so.Total, in, exact).CheckBound(0))

	gs := core.Linearize(in, so)

	// Fast-path differential: the heap-based Assign1 must reproduce the
	// retained quadratic reference bit for bit — same servers, same
	// amounts — on every corpus instance, not merely equal utility.
	fastA1 := core.Assign1Linearized(in, gs)
	refA1 := Assign1LinearizedRef(in, gs)
	for i := range refA1.Server {
		if fastA1.Server[i] != refA1.Server[i] || fastA1.Alloc[i] != refA1.Alloc[i] {
			rep.note(where+"/a1-fastref", record(fmt.Errorf(
				"%w: thread %d: fast Assign1 (server %d, alloc %v) != reference (server %d, alloc %v)",
				ErrDifferential, i, fastA1.Server[i], fastA1.Alloc[i], refA1.Server[i], refA1.Alloc[i])))
			break
		}
	}

	a2 := core.Assign2Linearized(in, gs)

	solvers := []struct {
		label      string
		a          core.Assignment
		guaranteed bool // proven α lower bound
	}{
		{"a1", fastA1, true},
		{"a2", a2, true},
		{"gm", core.AssignGreedyMarginal(in), false},
		{"uu", core.AssignUU(in), false},
		{"ur", core.AssignUR(in, r), false},
		{"ru", core.AssignRU(in, r), false},
		{"rr", core.AssignRR(in, r), false},
	}
	for _, sc := range solvers {
		rep.Solvers++
		sw := where + "/" + sc.label
		if rep.note(sw, Feasible(in, sc.a, opts.Eps)) {
			continue
		}
		rr := RatioAgainst(so.Total, in, sc.a)
		if sc.guaranteed {
			rep.note(sw, rr.CheckAlpha(0))
		} else {
			rep.note(sw, rr.CheckBound(0))
		}
		// No solver may beat the exact optimum.
		if u := sc.a.Utility(in); u > fExact+1e-6*(1+math.Abs(fExact)) {
			rep.note(sw, record(fmt.Errorf("%w: utility %v exceeds the exact optimum %v",
				ErrDifferential, u, fExact)))
		}
	}

	// Allocator differential, on a single server's budget and on the
	// pooled cluster budget (the super-optimal formulation).
	rep.checkAlloc(where+"/alloc-C", in, in.C, opts.Eps)
	rep.checkAlloc(where+"/alloc-mC", in, float64(in.M)*in.C, opts.Eps)
}

// checkAlloc cross-checks alloc.Concave against the alloc.Greedy ground
// truth on the instance's thread set at a 1/256 granularity, and against
// the retained unpruned bisection ConcaveRef (the λ-search lands on the
// bisection's final bracket but sums S over fewer threads, so the
// comparison is tolerance-based, unlike the bitwise Assign1
// differential).
func (rep *DiffReport) checkAlloc(where string, in *core.Instance, budget, eps float64) {
	fs := in.Threads
	cc := alloc.Concave(fs, budget)
	gr := alloc.Greedy(fs, budget, budget/256)
	rep.note(where+"/concave", Allocation(fs, cc.Alloc, budget, eps))
	rep.note(where+"/greedy", Allocation(fs, gr.Alloc, budget, eps))
	if cc.Total < gr.Total*(1-0.02)-eps {
		rep.note(where, record(fmt.Errorf(
			"%w: Concave total %v below the unit-greedy ground truth %v",
			ErrDifferential, cc.Total, gr.Total)))
	}
	ref := ConcaveRef(fs, budget)
	if d := math.Abs(cc.Total - ref.Total); d > 1e-7*(1+math.Abs(ref.Total)) {
		rep.note(where+"/concave-ref", record(fmt.Errorf(
			"%w: pruned Concave total %v != unpruned reference %v (diff %g)",
			ErrDifferential, cc.Total, ref.Total, d)))
	}
	for i := range ref.Alloc {
		if d := math.Abs(cc.Alloc[i] - ref.Alloc[i]); d > 1e-6*(1+budget) {
			rep.note(where+"/concave-ref", record(fmt.Errorf(
				"%w: thread %d: pruned allocation %v != unpruned reference %v",
				ErrDifferential, i, cc.Alloc[i], ref.Alloc[i])))
			break
		}
	}
}
