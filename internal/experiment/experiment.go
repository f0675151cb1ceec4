// Package experiment is the evaluation harness reproducing the paper's
// §VII: for each figure it sweeps a parameter (β = n/m, power-law α,
// discrete γ or θ), generates many random instances, runs Algorithm 2
// against the super-optimal bound and the UU/UR/RU/RR heuristics, and
// reports the mean per-trial utility ratios the figures plot.
//
// Trials fan out across an internal/solverpool worker pool but are
// bit-reproducible: each trial derives its own generator from the
// experiment seed and its (sweep point, trial) coordinates via
// rng.SplitPath, and results are written to slots keyed by trial index,
// so output never depends on goroutine scheduling or worker count.
// Cancellation of the caller's context, or the first failing trial,
// promptly aborts the remaining trials.
package experiment

import (
	"context"
	"fmt"
	"strconv"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/solverpool"
	"aa/internal/stats"
	"aa/internal/tableio"
	"aa/internal/telemetry"
)

// Competitors compared against Algorithm 2, in report order. SO is the
// super-optimal upper bound (the ratio is ≤ 1); the rest are heuristics
// (ratios ≥ 1 when Algorithm 2 wins). A1 is Algorithm 1, included as an
// ablation beyond the paper's own figures.
var Competitors = []string{"SO", "UU", "UR", "RU", "RR", "A1"}

// SweepPoint is one x-axis position of a figure: the parameter value, the
// value distribution H at that point and the thread count n. M, when
// positive, overrides the spec's server count for this point (used by
// the cluster-size sweep ext-m).
type SweepPoint struct {
	Param float64
	Dist  gen.Dist
	N     int
	M     int
}

// Spec describes one reproducible experiment (one paper figure).
type Spec struct {
	ID          string // e.g. "fig2a"
	Description string
	ParamName   string // x-axis label: "beta", "alpha", "gamma", "theta"
	M           int    // servers
	C           float64
	Trials      int
	Sweep       []SweepPoint
	// Extra lists additional competitor columns beyond Competitors:
	// "LS" (Algorithm 2 + relocation local search) and "GM"
	// (marginal-gain greedy). Used by the extension experiments.
	Extra []string
}

// columns returns the competitor keys reported by a spec.
func (s Spec) columns() []string {
	return append(append([]string(nil), Competitors...), s.Extra...)
}

// Point is the aggregated result at one sweep position. The paper says
// only "ratio of Algorithm 2's total utility versus the utilities of the
// other algorithms ... average performance from 1000 random trials",
// which admits two estimators; both are reported:
//
//   - Ratios[c]: summary of the per-trial ratio u(A2)/u(c) (mean of
//     ratios — sensitive to heavy-tailed trials);
//   - RatioOfMeans[c]: mean(u(A2)) / mean(u(c)) over the trials (ratio
//     of means — the more robust estimator).
type Point struct {
	Param        float64
	N            int
	Ratios       map[string]stats.Summary
	RatioOfMeans map[string]float64
}

// Result is a completed experiment.
type Result struct {
	Spec   Spec
	Points []Point
}

// Run executes the spec with the given base seed. workers <= 0 uses
// GOMAXPROCS. The result is deterministic in (spec, seed).
func Run(spec Spec, seed uint64, workers int) (*Result, error) {
	return RunContext(context.Background(), spec, seed, workers)
}

// stagePoint is the trace span around one sweep position.
var stagePoint = telemetry.NewStage("experiment.point", nil)

// RunContext is Run with cancellation: trials fan out across a
// solverpool with the given worker count, and a cancelled or expired
// ctx aborts the remaining trials promptly and returns ctx's error.
// The result is deterministic in (spec, seed) — identical for every
// worker count.
func RunContext(ctx context.Context, spec Spec, seed uint64, workers int) (*Result, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("experiment %s: nonpositive trial count", spec.ID)
	}
	if len(spec.Sweep) == 0 {
		return nil, fmt.Errorf("experiment %s: empty sweep", spec.ID)
	}
	pool := solverpool.New(solverpool.Options{Workers: workers})
	defer pool.Close()
	base := rng.New(seed)
	cols := spec.columns()
	res := &Result{Spec: spec, Points: make([]Point, len(spec.Sweep))}
	for pi, sp := range spec.Sweep {
		// Tag telemetry per figure/point: one span per sweep position, a
		// per-figure point counter, and (inside runPoint) a per-point
		// trial counter — all labeled so a /metrics scrape or a trace
		// file attributes solver work to the figure that caused it.
		span := stagePoint.StartIn(telemetry.SpanContext{})
		span.Str("fig", spec.ID)
		span.Float("param", sp.Param)
		span.Int("n", sp.N)
		if telemetry.Enabled() {
			telemetry.Default.Counter(telemetry.Label("aa_experiment_points_total", "fig", spec.ID)).Inc()
		}
		nums, dens, err := runPoint(ctx, pool, spec, sp, base, pi)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("experiment %s, %s=%g: %w", spec.ID, spec.ParamName, sp.Param, err)
		}
		pt := Point{
			Param:        sp.Param,
			N:            sp.N,
			Ratios:       make(map[string]stats.Summary, len(cols)),
			RatioOfMeans: make(map[string]float64, len(cols)),
		}
		for _, c := range cols {
			ratios := make([]float64, spec.Trials)
			var numSum, denSum float64
			for t := 0; t < spec.Trials; t++ {
				ratios[t] = safeRatio(nums[c][t], dens[c][t])
				numSum += nums[c][t]
				denSum += dens[c][t]
			}
			pt.Ratios[c] = stats.Summarize(ratios)
			pt.RatioOfMeans[c] = safeRatio(numSum, denSum)
		}
		res.Points[pi] = pt
	}
	return res, nil
}

// runPoint fans the point's trials out across the pool with ForEach.
// Trial t writes its values into slot t of each column, so the aggregate
// is identical for every worker count; the first trial error (or a dead
// ctx) cancels the remaining trials and is returned.
func runPoint(ctx context.Context, pool *solverpool.Pool, spec Spec, sp SweepPoint, base *rng.Rand, pi int) (nums, dens map[string][]float64, err error) {
	cols := spec.columns()
	nums = make(map[string][]float64, len(cols))
	dens = make(map[string][]float64, len(cols))
	for _, c := range cols {
		nums[c] = make([]float64, spec.Trials)
		dens[c] = make([]float64, spec.Trials)
	}

	// One labeled counter per (figure, sweep position); looked up once
	// here, incremented per finished trial inside the tasks.
	var trialsDone *telemetry.Counter
	if telemetry.Enabled() {
		trialsDone = telemetry.Default.Counter(telemetry.Label(
			"aa_experiment_trials_total",
			"fig", spec.ID,
			"param", strconv.FormatFloat(sp.Param, 'g', -1, 64)))
	}

	err = pool.ForEach(ctx, spec.Trials, func(tctx context.Context, t int) error {
		// Name the trial's stream by its coordinates so the draw sequence
		// is a pure function of (seed, point, trial).
		num, den, err := runTrial(tctx, spec, sp, base.SplitPath(uint64(pi), uint64(t)))
		if err != nil {
			return err
		}
		// Disjoint slots per trial: no lock needed.
		for c, v := range num {
			nums[c][t] = v
			dens[c][t] = den[c]
		}
		if trialsDone != nil {
			trialsDone.Inc()
		}
		return nil
	})
	return nums, dens, err
}

// runTrial generates one instance and returns each column's ratio
// numerator and denominator for this trial.
func runTrial(ctx context.Context, spec Spec, sp SweepPoint, r *rng.Rand) (map[string]float64, map[string]float64, error) {
	m := spec.M
	if sp.M > 0 {
		m = sp.M
	}
	in, err := gen.Instance(sp.Dist, m, spec.C, sp.N, r)
	if err != nil {
		return nil, nil, err
	}
	// None of the paper's stages draws from r, so the published rng
	// stream (gen → UR → RU → RR) is unchanged.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a1, a2, so := solvePaper(in)
	u2 := a2.Utility(in)

	// The randomized heuristics must draw in this exact order (UR, RU,
	// RR) — it is the rng stream behind every published figure.
	heur := []namedAssignment{
		{"UU", core.AssignUU(in)},
		{"UR", core.AssignUR(in, r)},
		{"RU", core.AssignRU(in, r)},
		{"RR", core.AssignRR(in, r)},
	}

	num := map[string]float64{}
	den := map[string]float64{
		"SO": so,
		"A1": a1.Utility(in),
	}
	for _, h := range heur {
		den[h.name] = h.a.Utility(in)
	}
	for c := range den {
		num[c] = u2
	}
	if check.Enabled() {
		if err := verifyTrial(in, so, a1, a2, heur); err != nil {
			return nil, nil, err
		}
	}
	for _, extra := range spec.Extra {
		switch extra {
		case "LS":
			improved, _, err := core.Improve(ctx, in, a2, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("LS: %w", err)
			}
			if check.Enabled() {
				if err := check.Feasible(in, improved, check.DefaultEps); err != nil {
					return nil, nil, fmt.Errorf("LS: %w", err)
				}
			}
			// Reported against SO so the column reads like the SO column:
			// how much of the bound A2+local-search attains.
			num["LS"], den["LS"] = improved.Utility(in), so
		case "GM":
			gm := core.AssignGreedyMarginal(in)
			if check.Enabled() {
				if err := check.Feasible(in, gm, check.DefaultEps); err != nil {
					return nil, nil, fmt.Errorf("GM: %w", err)
				}
			}
			num["GM"], den["GM"] = gm.Utility(in), so
		default:
			return nil, nil, fmt.Errorf("unknown extra competitor %q", extra)
		}
	}
	return num, den, nil
}

// solvePaper runs the paper's two algorithms from one super-optimal
// linearization on a pooled workspace — across a 1000-trial sweep the
// worker reuses the same scratch buffers — and returns Algorithm 1's
// and Algorithm 2's assignments with the bound F̂. Both are
// bit-identical to core.Assign1/core.Assign2.
func solvePaper(in *core.Instance) (a1, a2 core.Assignment, fhat float64) {
	w := core.GetWorkspace()
	defer core.PutWorkspace(w)
	so := w.SuperOptimal(in)
	gs := w.Linearize(in, so)
	w.Assign2Linearized(in, gs, &a2)
	w.Assign1Linearized(in, gs, &a1)
	return a1, a2, so.Total
}

// namedAssignment labels a solver's output for verification messages.
type namedAssignment struct {
	name string
	a    core.Assignment
}

// verifyTrial is the harness's -check hook (aabench -check / AA_CHECK=1):
// every solver's assignment must be feasible, every utility must respect
// the super-optimal bound, and Assign1/Assign2 must clear the paper's α
// guarantee. The first violation fails the trial — and with it the whole
// run — rather than silently averaging a bogus ratio into a figure.
func verifyTrial(in *core.Instance, fhat float64, a1, a2 core.Assignment, heur []namedAssignment) error {
	solvers := append([]namedAssignment{{"A1", a1}, {"A2", a2}}, heur...)
	for _, s := range solvers {
		if err := check.Feasible(in, s.a, check.DefaultEps); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		rr := check.RatioAgainst(fhat, in, s.a)
		var err error
		if s.name == "A1" || s.name == "A2" {
			err = rr.CheckAlpha(0)
		} else {
			err = rr.CheckBound(0)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// safeRatio guards against degenerate zero-utility denominators (possible
// only when every utility is identically zero).
func safeRatio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return 0
	}
	return num / den
}

// Render formats a result as a table with one row per sweep point, one
// "A2/<competitor>" column per base competitor and one "<X>/SO" column
// per extension competitor (extensions are measured against the bound).
func Render(res *Result) *tableio.Table {
	cols := res.Spec.columns()
	headers := make([]string, 0, len(cols)+2)
	headers = append(headers, res.Spec.ParamName, "n")
	for _, c := range Competitors {
		headers = append(headers, "A2/"+c)
	}
	for _, c := range res.Spec.Extra {
		headers = append(headers, c+"/SO")
	}
	title := fmt.Sprintf("%s: %s (m=%d, C=%g, %d trials)",
		res.Spec.ID, res.Spec.Description, res.Spec.M, res.Spec.C, res.Spec.Trials)
	t := tableio.New(title, headers...)
	for _, pt := range res.Points {
		cells := make([]string, 0, len(headers))
		cells = append(cells,
			tableio.FormatFloat(pt.Param, 2),
			fmt.Sprintf("%d", pt.N))
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%.4f", pt.Ratios[c].Mean))
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderRoM formats the ratio-of-means estimator (mean utilities divided
// before the ratio) — the robust alternative to Render's mean-of-ratios,
// useful on heavy-tailed panels.
func RenderRoM(res *Result) *tableio.Table {
	cols := res.Spec.columns()
	headers := make([]string, 0, len(cols)+2)
	headers = append(headers, res.Spec.ParamName, "n")
	for _, c := range Competitors {
		headers = append(headers, "A2/"+c)
	}
	for _, c := range res.Spec.Extra {
		headers = append(headers, c+"/SO")
	}
	title := fmt.Sprintf("%s: %s — ratio of mean utilities (m=%d, C=%g, %d trials)",
		res.Spec.ID, res.Spec.Description, res.Spec.M, res.Spec.C, res.Spec.Trials)
	t := tableio.New(title, headers...)
	for _, pt := range res.Points {
		cells := make([]string, 0, len(headers))
		cells = append(cells,
			tableio.FormatFloat(pt.Param, 2),
			fmt.Sprintf("%d", pt.N))
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%.4f", pt.RatioOfMeans[c]))
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderChart draws a result's ratio series as an ASCII line chart —
// the closest a terminal gets to the paper's figure panels.
func RenderChart(res *Result) *tableio.Chart {
	xs := make([]float64, len(res.Points))
	for i, pt := range res.Points {
		xs[i] = pt.Param
	}
	title := fmt.Sprintf("%s: %s (%d trials)", res.Spec.ID, res.Spec.Description, res.Spec.Trials)
	c := tableio.NewChart(title, res.Spec.ParamName, "utility ratio", xs)
	for _, comp := range res.Spec.columns() {
		ys := make([]float64, len(res.Points))
		for i, pt := range res.Points {
			ys[i] = pt.Ratios[comp].Mean
		}
		label := "A2/" + comp
		if comp == "LS" || comp == "GM" {
			label = comp + "/SO"
		}
		c.AddSeries(label, ys)
	}
	return c
}

// ---------------------------------------------------------------------------
// Figure specs (§VII): m = 8, C = 1000, default 1000 trials.
// ---------------------------------------------------------------------------

// Defaults shared by every figure.
const (
	DefaultM      = 8
	DefaultC      = 1000.0
	DefaultTrials = 1000
)

func betaSweep(dist func(beta int) gen.Dist, m int) []SweepPoint {
	points := make([]SweepPoint, 0, 15)
	for beta := 1; beta <= 15; beta++ {
		points = append(points, SweepPoint{
			Param: float64(beta),
			Dist:  dist(beta),
			N:     beta * m,
		})
	}
	return points
}

// Fig1a sweeps β under the uniform distribution (Figure 1(a)).
func Fig1a(trials int) Spec {
	return Spec{
		ID:          "fig1a",
		Description: "uniform distribution, ratio vs beta",
		ParamName:   "beta",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       betaSweep(func(int) gen.Dist { return gen.DefaultUniform }, DefaultM),
	}
}

// Fig1b sweeps β under the truncated normal(1,1) distribution
// (Figure 1(b)).
func Fig1b(trials int) Spec {
	return Spec{
		ID:          "fig1b",
		Description: "normal(1,1) distribution, ratio vs beta",
		ParamName:   "beta",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       betaSweep(func(int) gen.Dist { return gen.DefaultNormal }, DefaultM),
	}
}

// Fig2a sweeps β under the power-law distribution with α = 2
// (Figure 2(a)).
func Fig2a(trials int) Spec {
	return Spec{
		ID:          "fig2a",
		Description: "power law (alpha=2), ratio vs beta",
		ParamName:   "beta",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       betaSweep(func(int) gen.Dist { return gen.PowerLaw{Alpha: 2, Xmin: 1} }, DefaultM),
	}
}

// Fig2b sweeps the power-law exponent α at fixed β = 5 (Figure 2(b)).
func Fig2b(trials int) Spec {
	alphas := []float64{1.5, 2, 2.5, 3, 3.5, 4}
	points := make([]SweepPoint, 0, len(alphas))
	for _, a := range alphas {
		points = append(points, SweepPoint{
			Param: a,
			Dist:  gen.PowerLaw{Alpha: a, Xmin: 1},
			N:     5 * DefaultM,
		})
	}
	return Spec{
		ID:          "fig2b",
		Description: "power law, ratio vs alpha (beta=5)",
		ParamName:   "alpha",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       points,
	}
}

// Fig3a sweeps β under the discrete distribution with γ = 0.85, θ = 5
// (Figure 3(a)).
func Fig3a(trials int) Spec {
	return Spec{
		ID:          "fig3a",
		Description: "discrete (gamma=0.85, theta=5), ratio vs beta",
		ParamName:   "beta",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep: betaSweep(func(int) gen.Dist {
			return gen.Discrete{L: 1, Gamma: 0.85, Theta: 5}
		}, DefaultM),
	}
}

// Fig3b sweeps the discrete low-value probability γ at β = 5, θ = 5
// (Figure 3(b)).
func Fig3b(trials int) Spec {
	points := make([]SweepPoint, 0, 10)
	for g := 0.05; g <= 0.951; g += 0.1 {
		points = append(points, SweepPoint{
			Param: g,
			Dist:  gen.Discrete{L: 1, Gamma: g, Theta: 5},
			N:     5 * DefaultM,
		})
	}
	return Spec{
		ID:          "fig3b",
		Description: "discrete (theta=5, beta=5), ratio vs gamma",
		ParamName:   "gamma",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       points,
	}
}

// Fig3c sweeps the discrete high/low ratio θ at β = 5, γ = 0.85
// (Figure 3(c)).
func Fig3c(trials int) Spec {
	thetas := []float64{1, 2, 5, 10, 15, 20}
	points := make([]SweepPoint, 0, len(thetas))
	for _, th := range thetas {
		points = append(points, SweepPoint{
			Param: th,
			Dist:  gen.Discrete{L: 1, Gamma: 0.85, Theta: th},
			N:     5 * DefaultM,
		})
	}
	return Spec{
		ID:          "fig3c",
		Description: "discrete (gamma=0.85, beta=5), ratio vs theta",
		ParamName:   "theta",
		M:           DefaultM,
		C:           DefaultC,
		Trials:      trials,
		Sweep:       points,
	}
}

// ExtDiscreteLS is an extension beyond the paper: the hardest panel
// (two-point discrete, sweep β) with two additional solvers measured
// against the super-optimal bound — Algorithm 2 + relocation local
// search ("LS") and the marginal-gain greedy ("GM"). It quantifies how
// much of Algorithm 2's residual gap cheap post-optimization recovers.
func ExtDiscreteLS(trials int) Spec {
	s := Fig3a(trials)
	s.ID = "ext-ls"
	s.Description = "discrete (gamma=0.85, theta=5) with local search and greedy-marginal"
	// Keep the sweep short: the extra solvers cost O(n·m) allocations.
	s.Sweep = []SweepPoint{s.Sweep[1], s.Sweep[4], s.Sweep[9], s.Sweep[14]}
	s.Extra = []string{"LS", "GM"}
	return s
}

// AllFigures returns every paper-figure spec with the given trial count.
func AllFigures(trials int) []Spec {
	return []Spec{
		Fig1a(trials), Fig1b(trials),
		Fig2a(trials), Fig2b(trials),
		Fig3a(trials), Fig3b(trials), Fig3c(trials),
	}
}

// ExtClusterSize sweeps the server count m at fixed β = n/m = 5 — a
// question the paper leaves open (its evaluation fixes m = 8): does the
// advantage over the heuristics depend on cluster size? Power-law
// utilities keep the placement problem nontrivial at every scale.
func ExtClusterSize(trials int) Spec {
	ms := []int{2, 4, 8, 16, 32}
	points := make([]SweepPoint, 0, len(ms))
	for _, m := range ms {
		points = append(points, SweepPoint{
			Param: float64(m),
			Dist:  gen.PowerLaw{Alpha: 2, Xmin: 1},
			N:     5 * m,
			M:     m,
		})
	}
	return Spec{
		ID:          "ext-m",
		Description: "power law (alpha=2, beta=5), ratio vs cluster size m",
		ParamName:   "m",
		M:           DefaultM, // overridden per point
		C:           DefaultC,
		Trials:      trials,
		Sweep:       points,
	}
}

// AllExtensions returns the extension experiment specs.
func AllExtensions(trials int) []Spec {
	return []Spec{ExtDiscreteLS(trials), ExtClusterSize(trials)}
}

// ByID returns the figure or extension spec with the given id, or false.
func ByID(id string, trials int) (Spec, bool) {
	for _, s := range AllFigures(trials) {
		if s.ID == id {
			return s, true
		}
	}
	for _, s := range AllExtensions(trials) {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
