// Package aa is the public API of this repository: an implementation of
// "Utility Maximizing Thread Assignment and Resource Allocation"
// (Lai, Fan, Zhang, Liu — IPDPS 2016).
//
// The AA (assign and allocate) problem places n threads onto m
// homogeneous servers with capacity C each and divides every server's
// resource among its threads, maximizing the total utility Σ f_i(c_i),
// where each f_i is a nonnegative, nondecreasing, concave utility
// function. The problem is NP-hard for m ≥ 2; Solve implements the
// paper's fast O(n (log mC)²) greedy with the proven approximation
// ratio Alpha = 2(√2−1) ≈ 0.828.
//
// # Quick start
//
//	inst := &aa.Instance{
//		M: 2, C: 100,
//		Threads: []aa.Utility{
//			aa.Log{Scale: 5, Shift: 10, C: 100},
//			aa.Power{Scale: 2, Beta: 0.5, C: 100},
//			aa.SatExp{Scale: 3, K: 20, C: 100},
//		},
//	}
//	sol := aa.Solve(inst)
//	fmt.Println(sol.Utility(inst), sol.Server, sol.Alloc)
//
// Every solver entry point here is a thin shim over internal/engine —
// the repository's unified request pipeline (named-backend registry +
// workspace pooling + invariant checking + telemetry + cancellation) —
// so a library call, an experiment trial, a CLI invocation and an
// aaserve request all execute the same code path. For concurrent
// workloads, SolveBatch and SolverPool fan independent solves out
// across the engine's bounded worker pool with per-request
// cancellation and queue backpressure.
//
// Beyond Solve, the package re-exports the super-optimal upper bound,
// Algorithm 1, the exact solvers for small instances, the comparison
// heuristics from the paper's evaluation, the synthetic workload
// generator of §VII, and the experiment harness that regenerates every
// figure of the paper. Deeper substrates (the multicore cache simulator,
// hosting and cloud scenarios, and the heterogeneous/multi-resource/
// online extensions) live under internal/ and are exercised through the
// example programs and cmd tools.
package aa

import (
	"context"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/experiment"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Alpha is the approximation ratio 2(√2−1) ≈ 0.8284 guaranteed by both
// assignment algorithms (Theorems V.16 and VI.1 of the paper).
var Alpha = core.Alpha

// Core model types.
type (
	// Instance is an AA problem: M homogeneous servers of capacity C and
	// one Utility per thread.
	Instance = core.Instance
	// Assignment maps each thread to a server and an allocation.
	Assignment = core.Assignment
	// Utility is a thread's nonnegative, nondecreasing, concave utility
	// function over [0, C].
	Utility = utility.Func
	// SuperOpt is the pooled-knapsack relaxation: the upper bound F̂ and
	// allocations ĉ_i that drive the approximation algorithms.
	SuperOpt = core.SuperOpt
	// Linearized is the two-segment surrogate utility from the paper's
	// Equation 1.
	Linearized = core.Linearized
)

// Utility families (all concave, documented in internal/utility).
type (
	// Linear is f(x) = Slope·x.
	Linear = utility.Linear
	// CappedLinear is f(x) = Slope·min(x, Knee).
	CappedLinear = utility.CappedLinear
	// Power is f(x) = Scale·x^Beta, Beta ∈ (0, 1].
	Power = utility.Power
	// Log is f(x) = Scale·ln(1 + x/Shift).
	Log = utility.Log
	// SatExp is f(x) = Scale·(1 − e^(−x/K)).
	SatExp = utility.SatExp
	// Saturating is f(x) = Scale·x/(x + K).
	Saturating = utility.Saturating
	// PiecewiseLinear is a concave piecewise-linear curve through knots.
	PiecewiseLinear = utility.PiecewiseLinear
	// Sampled is a smooth PCHIP-interpolated curve through samples.
	Sampled = utility.Sampled
)

// Utility combinators (concavity-preserving).
type (
	// Scaled multiplies a utility by a nonnegative factor.
	Scaled = utility.Scaled
	// Sum is the pointwise sum of utilities.
	Sum = utility.Sum
	// Min is the pointwise minimum (e.g. a demand cap).
	Min = utility.Min
	// Offset adds a nonnegative constant.
	Offset = utility.Offset
)

// NewPiecewiseLinear builds a concave piecewise-linear utility through
// (xs[i], ys[i]); xs must start at 0 and the last knot defines the domain.
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	return utility.NewPiecewiseLinear(xs, ys)
}

// NewSampled builds a smooth monotone utility through sampled points via
// PCHIP interpolation (the paper's own curve construction).
func NewSampled(xs, ys []float64) (*Sampled, error) {
	return utility.NewSampled(xs, ys)
}

// ValidateUtility numerically checks the three model assumptions
// (nonnegative, nondecreasing, concave) on a sample grid.
func ValidateUtility(f Utility, samples int, tol float64) error {
	return utility.Validate(f, samples, tol)
}

// engineSolve routes a facade call through the shared engine pipeline.
// The facade's no-error signatures predate the engine; an invalid
// instance (or a post-solve check violation under EnableChecks) yields
// the zero Assignment rather than a bogus result.
func engineSolve(backend string, req *engine.Request) Assignment {
	req.Backend = backend
	resp, err := engine.Default().Solve(context.Background(), req)
	if err != nil {
		return Assignment{}
	}
	return resp.Assignment
}

// Solve runs Algorithm 2, the paper's O(n (log mC)²) assignment with
// approximation ratio Alpha, through the engine pipeline. This is the
// recommended solver.
func Solve(in *Instance) Assignment {
	return engineSolve("assign2", &engine.Request{Instance: in})
}

// SolveAlgorithm1 runs Algorithm 1, the O(mn² + n (log mC)²) greedy with
// the same guarantee; it is kept for completeness and ablation.
func SolveAlgorithm1(in *Instance) Assignment {
	return engineSolve("assign1", &engine.Request{Instance: in})
}

// SolveExact finds an optimal assignment by branch and bound. It is
// exponential in the worst case (the problem is NP-hard) and refuses
// instances whose search exceeds maxNodes (0 = default limit); intended
// for small instances and calibration.
func SolveExact(in *Instance, maxNodes int) (Assignment, error) {
	resp, err := engine.Default().Solve(context.Background(),
		&engine.Request{Instance: in, Backend: "exact", MaxNodes: maxNodes})
	if err != nil {
		return Assignment{}, err
	}
	return resp.Assignment, nil
}

// SuperOptimal computes the paper's pooled-capacity upper bound: no
// feasible assignment can exceed its Total.
func SuperOptimal(in *Instance) SuperOpt { return core.SuperOptimal(in) }

// Improve post-optimizes an assignment with single-thread relocation
// local search (re-allocating affected servers optimally). Utility never
// decreases; maxMoves 0 means n·m moves. Useful after Solve on hard
// two-class workloads. Returns the result and the number of moves.
func Improve(in *Instance, a Assignment, maxMoves int) (Assignment, int) {
	// A background context never cancels, so the error is always nil.
	out, moves, _ := core.Improve(context.Background(), in, a, maxMoves)
	return out, moves
}

// SolveGreedyMarginal is a strong baseline beyond the paper's four
// heuristics: marginal-gain greedy placement with optimal per-server
// allocation. No approximation guarantee; slower than Solve.
func SolveGreedyMarginal(in *Instance) Assignment {
	return engineSolve("greedy", &engine.Request{Instance: in})
}

// Polish keeps an assignment's placement but re-solves every server's
// allocation optimally against the original utilities. Utility never
// decreases; cheap (one concave allocation per server) and recommended
// after Solve when the last fraction of a percent matters.
func Polish(in *Instance, a Assignment) Assignment {
	return core.PolishAllocations(in, a)
}

// Batch solving: Algorithm 2 solves fanned out across a bounded worker
// pool behind the engine pipeline, with per-request cancellation and
// queue backpressure. Pool activity is counted in the process-wide
// aa_pool_* telemetry metrics.

// SolverPool is a long-lived worker pool for streams of Algorithm 2
// solves. Create with NewSolverPool, release with Close. Safe for
// concurrent use.
type SolverPool struct{ eng *engine.Engine }

// SolverPoolOptions configure a SolverPool. The zero value gives
// GOMAXPROCS workers and a queue of twice that depth.
type SolverPoolOptions struct {
	// Workers is the number of solver goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the solves waiting for a worker; <= 0 means
	// 2×Workers.
	QueueDepth int
	// Check verifies every result (feasibility plus the α guarantee)
	// and fails the solve with ErrInfeasible or ErrRatioViolation
	// instead of returning a bad assignment.
	Check bool
}

// ErrQueueFull is the backpressure signal returned by SolverPool.Submit
// when the bounded job queue is at capacity.
var ErrQueueFull = engine.ErrQueueFull

// NewSolverPool starts a solver pool; its workers start on first use.
func NewSolverPool(opts SolverPoolOptions) *SolverPool {
	return &SolverPool{eng: engine.New(engine.Options{
		Workers: opts.Workers, QueueDepth: opts.QueueDepth, Check: opts.Check,
	})}
}

// Solve runs Algorithm 2 on one instance on the pool, waiting for a
// queue slot when the queue is full.
func (p *SolverPool) Solve(ctx context.Context, in *Instance) (Assignment, error) {
	out, err := p.SolveBatch(ctx, []*Instance{in})
	if err != nil {
		return Assignment{}, err
	}
	return out[0], nil
}

// Submit is Solve without the wait for a queue slot: it fails with
// ErrQueueFull when the queue is at capacity.
func (p *SolverPool) Submit(ctx context.Context, in *Instance) (Assignment, error) {
	resp, err := p.eng.Submit(ctx, &engine.Request{Instance: in})
	if err != nil {
		return Assignment{}, err
	}
	return resp.Assignment, nil
}

// SolveBatch solves the instances concurrently on the pool and returns
// one Algorithm 2 assignment per instance, in input order. The first
// failure cancels the remaining solves and is returned.
func (p *SolverPool) SolveBatch(ctx context.Context, ins []*Instance) ([]Assignment, error) {
	reqs := make([]*engine.Request, len(ins))
	for i, in := range ins {
		reqs[i] = &engine.Request{Instance: in}
	}
	resps, err := p.eng.SolveBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]Assignment, len(resps))
	for i, resp := range resps {
		out[i] = resp.Assignment
	}
	return out, nil
}

// Close waits for queued and running solves to finish and stops the
// workers. Closing twice is a no-op.
func (p *SolverPool) Close() { p.eng.Close() }

// SolveBatch solves the instances concurrently across GOMAXPROCS
// workers and returns one Algorithm 2 assignment per instance, in input
// order. The first failure cancels the remaining solves; cancelling ctx
// returns ctx.Err() once the solves already running have stopped.
// Callers with a steady stream of requests should hold a NewSolverPool
// instead of paying pool startup per batch.
func SolveBatch(ctx context.Context, ins []*Instance) ([]Assignment, error) {
	p := NewSolverPool(SolverPoolOptions{})
	defer p.Close()
	return p.SolveBatch(ctx, ins)
}

// Verification (internal/check): opt-in invariant checking for solver
// outputs. Verify enforces strict feasibility (thread caps included,
// unlike Assignment.Validate); VerifyRatio measures F against the
// super-optimal bound F̂ and its CheckAlpha/CheckBound methods flag
// violations of the proven guarantees. EnableChecks turns on
// process-wide post-solve verification in SolverPool, SolveBatch, the
// experiment harness and the online simulator — the library form of the
// CLIs' -check flag. Outcomes are counted in the aa_check_total and
// aa_check_violations_total telemetry metrics.

// CheckReport is the F/F̂ ratio report returned by VerifyRatio.
type CheckReport = check.RatioReport

// Typed verification errors, for errors.Is classification.
var (
	// ErrInfeasible wraps every feasibility violation found by Verify or
	// a checked solve.
	ErrInfeasible = check.ErrInfeasible
	// ErrRatioViolation wraps every approximation-ratio violation.
	ErrRatioViolation = check.ErrRatio
)

// Verify checks an assignment against the hard constraints of the AA
// problem: valid servers, finite nonnegative allocations within each
// thread's cap, and per-server loads within C(1+eps). eps <= 0 uses the
// default tolerance (1e-6).
func Verify(in *Instance, a Assignment, eps float64) error {
	return check.Feasible(in, a, eps)
}

// VerifyRatio computes the assignment's utility F against a freshly
// computed super-optimal bound F̂.
func VerifyRatio(in *Instance, a Assignment) CheckReport {
	return check.Ratio(in, a)
}

// EnableChecks turns on process-wide post-solve verification; a solve
// whose result violates feasibility or the α guarantee then fails with
// ErrInfeasible or ErrRatioViolation instead of returning the result.
func EnableChecks() { check.Enable() }

// DisableChecks turns process-wide verification back off.
func DisableChecks() { check.Disable() }

// Rand is the deterministic random generator used by the stochastic
// heuristics and the workload generator.
type Rand = rng.Rand

// NewRand returns a deterministic generator seeded with seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Heuristics from the paper's evaluation (§VII). UU/UR assign round
// robin, RU/RR assign uniformly at random; the second letter chooses
// equal (U) or random (R) per-server allocation.
var (
	HeuristicUU = core.AssignUU
	HeuristicUR = core.AssignUR
	HeuristicRU = core.AssignRU
	HeuristicRR = core.AssignRR
)

// FixedRequest is the introduction's strawman: each thread demands a
// fixed amount and is placed first-fit with no allocation adjustment.
func FixedRequest(in *Instance, requests []float64) Assignment {
	return core.AssignFixedRequest(in, requests)
}

// Workload generation (§VII): distributions for the three-point PCHIP
// thread construction.
type (
	// Dist is a distribution over nonnegative utility values.
	Dist = gen.Dist
	// UniformDist draws from [Lo, Hi).
	UniformDist = gen.Uniform
	// NormalDist draws from a positive-truncated normal.
	NormalDist = gen.Normal
	// PowerLawDist draws from p(x) ∝ x^(−Alpha) on [Xmin, ∞).
	PowerLawDist = gen.PowerLaw
	// DiscreteDist draws ℓ with probability γ, else θ·ℓ.
	DiscreteDist = gen.Discrete
)

// GenerateInstance draws an instance with n threads from dist, matching
// the paper's workload generator.
func GenerateInstance(dist Dist, m int, c float64, n int, r *Rand) (*Instance, error) {
	return gen.Instance(dist, m, c, n, r)
}

// Experiment harness types for regenerating the paper's figures.
type (
	// ExperimentSpec describes one figure's sweep.
	ExperimentSpec = experiment.Spec
	// ExperimentResult is a completed figure run.
	ExperimentResult = experiment.Result
)

// Figures returns the specs of every figure in the paper's evaluation
// with the given trial count (the paper uses 1000).
func Figures(trials int) []ExperimentSpec { return experiment.AllFigures(trials) }

// RunExperiment executes a figure spec deterministically in (spec, seed).
func RunExperiment(spec ExperimentSpec, seed uint64, workers int) (*ExperimentResult, error) {
	return experiment.Run(spec, seed, workers)
}

// RunExperimentContext is RunExperiment with cancellation: the trials
// fan out across a solver pool with the given worker count, and a
// cancelled or expired ctx aborts the run promptly. Results are
// identical for every worker count.
func RunExperimentContext(ctx context.Context, spec ExperimentSpec, seed uint64, workers int) (*ExperimentResult, error) {
	return experiment.RunContext(ctx, spec, seed, workers)
}
