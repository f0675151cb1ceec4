// Package replay is the trace-driven datacenter replay simulator: a
// deterministic discrete-event harness that plays recorded or synthetic
// arrival/departure traces — diurnal load curves, flash-crowd bursts,
// utility drift and correlated server failure/recovery episodes —
// through the real engine pipeline (or a live aaserve endpoint) at
// accelerated virtual time, and reports utility-vs-F̂, solve-latency
// percentiles and queue-depth trajectories per scenario.
//
// Determinism contract: every random draw comes from rng.SplitPath
// streams keyed by (seed, purpose, id), virtual time is derived purely
// from the trace and a deterministic solve-cost model, and all float
// accumulations run in fixed order. The same scenario + seed therefore
// yields a bit-identical canonical report on any machine, any run —
// the property the run-twice determinism test and the CI replay smoke
// enforce (the mgpusim acceptance-test idiom). Wall-clock measurements
// are confined to the report's "wall" section, which Canonical strips.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"aa/internal/gen"
)

// Scenario is a declarative replay scenario: the cluster shape, the
// load curve, the lifetime/drift/failure processes and the policy that
// reacts to them. Scenarios are small JSON files (see Load) or one of
// the built-in families (see Builtin).
type Scenario struct {
	Name     string  `json:"name"`
	Servers  int     `json:"servers"`
	Capacity float64 `json:"capacity"`
	// Horizon is the virtual end time in seconds; events at or after it
	// are ignored.
	Horizon float64 `json:"horizon"`
	// Policy is the rebalancing policy: "full-resolve", "incremental"
	// or "hybrid". Empty means full-resolve.
	Policy string `json:"policy,omitempty"`
	// HybridThreshold is the hybrid policy's rebuild threshold as a
	// fraction of the super-optimal bound; 0 means the paper's α.
	HybridThreshold float64 `json:"hybridThreshold,omitempty"`

	// InitialThreads, when positive, opens the trace with a single
	// ArriveBatch event at t=0 admitting that many threads at once — the
	// bigfleet regime (10⁵–10⁶ standing threads) where per-thread arrival
	// events would dwarf the rest of the timeline. Initial threads
	// persist to the horizon; the Poisson arrival process layers churn on
	// top, its ids starting at InitialThreads.
	InitialThreads int `json:"initialThreads,omitempty"`

	Utility  UtilitySpec  `json:"utility"`
	Arrivals ArrivalSpec  `json:"arrivals"`
	Lifetime LifetimeSpec `json:"lifetime"`
	// DriftRate is the global rate (events per virtual second) of
	// utility re-measurements of a uniformly chosen active thread.
	DriftRate float64      `json:"driftRate,omitempty"`
	Failures  *FailureSpec `json:"failures,omitempty"`

	// SolveCost scales the deterministic virtual-time cost model of one
	// re-solve: a solve of n threads on m servers occupies the virtual
	// solver for SolveCost·(n+m)·log2(n+m+2) seconds, during which
	// later events queue. 0 means DefaultSolveCost.
	SolveCost float64 `json:"solveCost,omitempty"`
	// GridPoints is the number of trajectory samples across the
	// horizon; 0 means DefaultGridPoints.
	GridPoints int `json:"gridPoints,omitempty"`
}

// Defaults for the knobs a scenario may leave zero.
const (
	DefaultSolveCost  = 1e-3
	DefaultGridPoints = 96
)

// UtilitySpec selects the paper's workload-generator distribution for
// arriving threads' utility curves (gen.Thread's three-point PCHIP
// construction).
type UtilitySpec struct {
	// Dist is "uniform", "normal", "powerlaw" or "discrete".
	Dist string `json:"dist"`
	// Uniform [Lo, Hi); defaults to the unit interval.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Normal(Mean, Stddev) conditioned positive; defaults to (1, 1).
	Mean   float64 `json:"mean,omitempty"`
	Stddev float64 `json:"stddev,omitempty"`
	// PowerLaw tail exponent and scale; defaults to (2, 1).
	Alpha float64 `json:"alpha,omitempty"`
	Xmin  float64 `json:"xmin,omitempty"`
	// Discrete low value ℓ, P(ℓ) and h/ℓ; defaults to (1, 0.5, 4).
	L     float64 `json:"l,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	Theta float64 `json:"theta,omitempty"`
}

// Dist builds the gen.Dist the spec names.
func (u UtilitySpec) dist() (gen.Dist, error) {
	switch u.Dist {
	case "", "uniform":
		d := gen.Uniform{Lo: u.Lo, Hi: u.Hi}
		if d.Lo == 0 && d.Hi == 0 {
			d = gen.DefaultUniform
		}
		if !(d.Hi > d.Lo) {
			return nil, fmt.Errorf("replay: uniform utility needs hi > lo, got [%g,%g)", d.Lo, d.Hi)
		}
		return d, nil
	case "normal":
		d := gen.Normal{Mean: u.Mean, Stddev: u.Stddev}
		if d.Mean == 0 && d.Stddev == 0 {
			d = gen.DefaultNormal
		}
		if !(d.Stddev > 0) {
			return nil, fmt.Errorf("replay: normal utility needs stddev > 0, got %g", d.Stddev)
		}
		return d, nil
	case "powerlaw":
		d := gen.PowerLaw{Alpha: u.Alpha, Xmin: u.Xmin}
		if d.Alpha == 0 {
			d.Alpha = 2
		}
		if d.Xmin == 0 {
			d.Xmin = 1
		}
		if !(d.Alpha > 1) || !(d.Xmin > 0) {
			return nil, fmt.Errorf("replay: powerlaw utility needs alpha > 1 and xmin > 0, got (%g, %g)", d.Alpha, d.Xmin)
		}
		return d, nil
	case "discrete":
		d := gen.Discrete{L: u.L, Gamma: u.Gamma, Theta: u.Theta}
		if d.L == 0 && d.Gamma == 0 && d.Theta == 0 {
			d = gen.Discrete{L: 1, Gamma: 0.5, Theta: 4}
		}
		if !(d.L > 0) || d.Gamma < 0 || d.Gamma > 1 || d.Theta < 1 {
			return nil, fmt.Errorf("replay: discrete utility needs l > 0, gamma in [0,1], theta >= 1")
		}
		return d, nil
	}
	return nil, fmt.Errorf("replay: unknown utility dist %q", u.Dist)
}

// ArrivalSpec is the time-varying Poisson arrival process: a base rate
// modulated by an optional diurnal sinusoid and multiplicative
// flash-crowd bursts.
type ArrivalSpec struct {
	// BaseRate is the mean arrival rate in threads per virtual second.
	BaseRate float64      `json:"baseRate"`
	Diurnal  *DiurnalSpec `json:"diurnal,omitempty"`
	Bursts   []BurstSpec  `json:"bursts,omitempty"`
}

// DiurnalSpec modulates the base rate by 1 + Amplitude·sin(2πt/Period + Phase).
type DiurnalSpec struct {
	Amplitude float64 `json:"amplitude"`
	Period    float64 `json:"period"`
	Phase     float64 `json:"phase,omitempty"`
}

// BurstSpec multiplies the arrival rate by Multiplier on [Start, Start+Duration).
type BurstSpec struct {
	Start      float64 `json:"start"`
	Duration   float64 `json:"duration"`
	Multiplier float64 `json:"multiplier"`
}

// Rate evaluates the instantaneous arrival rate λ(t).
func (a ArrivalSpec) Rate(t float64) float64 {
	r := a.BaseRate
	if a.Diurnal != nil {
		r *= 1 + a.Diurnal.Amplitude*math.Sin(2*math.Pi*t/a.Diurnal.Period+a.Diurnal.Phase)
	}
	for _, b := range a.Bursts {
		if t >= b.Start && t < b.Start+b.Duration {
			r *= b.Multiplier
		}
	}
	if r < 0 {
		return 0
	}
	return r
}

// maxRate bounds λ(t) from above for Poisson thinning.
func (a ArrivalSpec) maxRate() float64 {
	r := a.BaseRate
	if a.Diurnal != nil {
		r *= 1 + math.Abs(a.Diurnal.Amplitude)
	}
	mult := 1.0
	for _, b := range a.Bursts {
		if b.Multiplier > mult {
			mult = b.Multiplier
		}
	}
	return r * mult
}

// LifetimeSpec is the exponential thread-lifetime distribution.
type LifetimeSpec struct {
	Mean float64 `json:"mean"`
}

// FailureSpec is the correlated server failure/recovery process:
// cluster-level failure episodes arrive with exponential inter-episode
// gaps of mean MTBF; each episode takes a contiguous group of GroupSize
// servers down together for an exponential duration of mean MTTR.
// Episodes never overlap, so at least Servers − GroupSize servers are
// always up.
type FailureSpec struct {
	MTBF      float64 `json:"mtbf"`
	MTTR      float64 `json:"mttr"`
	GroupSize int     `json:"groupSize"`
}

// Validate checks the scenario is well formed and fills nothing in —
// defaults are applied where the fields are consumed.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("replay: scenario needs a name")
	}
	if sc.Servers < 1 {
		return fmt.Errorf("replay: scenario %q: servers %d, need >= 1", sc.Name, sc.Servers)
	}
	if !(sc.Capacity > 0) {
		return fmt.Errorf("replay: scenario %q: capacity %g, need > 0", sc.Name, sc.Capacity)
	}
	if !(sc.Horizon > 0) {
		return fmt.Errorf("replay: scenario %q: horizon %g, need > 0", sc.Name, sc.Horizon)
	}
	switch sc.Policy {
	case "", "full-resolve", "incremental", "hybrid":
	default:
		return fmt.Errorf("replay: scenario %q: unknown policy %q", sc.Name, sc.Policy)
	}
	if sc.HybridThreshold < 0 || sc.HybridThreshold > 1 {
		return fmt.Errorf("replay: scenario %q: hybridThreshold %g outside [0,1]", sc.Name, sc.HybridThreshold)
	}
	if sc.InitialThreads < 0 {
		return fmt.Errorf("replay: scenario %q: initialThreads %d, need >= 0", sc.Name, sc.InitialThreads)
	}
	if _, err := sc.Utility.dist(); err != nil {
		return err
	}
	if !(sc.Arrivals.BaseRate > 0) {
		return fmt.Errorf("replay: scenario %q: arrivals.baseRate %g, need > 0", sc.Name, sc.Arrivals.BaseRate)
	}
	if d := sc.Arrivals.Diurnal; d != nil {
		if d.Amplitude < 0 || d.Amplitude > 1 {
			return fmt.Errorf("replay: scenario %q: diurnal amplitude %g outside [0,1]", sc.Name, d.Amplitude)
		}
		if !(d.Period > 0) {
			return fmt.Errorf("replay: scenario %q: diurnal period %g, need > 0", sc.Name, d.Period)
		}
	}
	for i, b := range sc.Arrivals.Bursts {
		if b.Start < 0 || !(b.Duration > 0) || b.Multiplier < 0 {
			return fmt.Errorf("replay: scenario %q: burst %d needs start >= 0, duration > 0, multiplier >= 0", sc.Name, i)
		}
	}
	if !(sc.Lifetime.Mean > 0) {
		return fmt.Errorf("replay: scenario %q: lifetime.mean %g, need > 0", sc.Name, sc.Lifetime.Mean)
	}
	if sc.DriftRate < 0 {
		return fmt.Errorf("replay: scenario %q: driftRate %g, need >= 0", sc.Name, sc.DriftRate)
	}
	if f := sc.Failures; f != nil {
		if !(f.MTBF > 0) || !(f.MTTR > 0) {
			return fmt.Errorf("replay: scenario %q: failures need mtbf > 0 and mttr > 0", sc.Name)
		}
		if f.GroupSize < 1 || f.GroupSize >= sc.Servers {
			return fmt.Errorf("replay: scenario %q: failure groupSize %d outside [1, servers-1=%d]",
				sc.Name, f.GroupSize, sc.Servers-1)
		}
	}
	if sc.SolveCost < 0 {
		return fmt.Errorf("replay: scenario %q: solveCost %g, need >= 0", sc.Name, sc.SolveCost)
	}
	if sc.GridPoints < 0 {
		return fmt.Errorf("replay: scenario %q: gridPoints %d, need >= 0", sc.Name, sc.GridPoints)
	}
	return nil
}

// solveCost returns the scenario's virtual solve-cost scale.
func (sc *Scenario) solveCost() float64 {
	if sc.SolveCost > 0 {
		return sc.SolveCost
	}
	return DefaultSolveCost
}

// gridPoints returns the scenario's trajectory sample count.
func (sc *Scenario) gridPoints() int {
	if sc.GridPoints > 0 {
		return sc.GridPoints
	}
	return DefaultGridPoints
}

// policyName returns the effective policy name.
func (sc *Scenario) policyName() string {
	if sc.Policy == "" {
		return "full-resolve"
	}
	return sc.Policy
}

// Decode reads a scenario from JSON, rejecting unknown fields so typos
// in scenario files fail loudly instead of silently using defaults.
func Decode(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("replay: decode scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return sc, nil
}

// builtins are the standing scenario families, in display order:
//
//   - diurnal: a day of sinusoidal load against a mid-size cluster,
//   - flash: flat load punctured by two flash-crowd bursts,
//   - failures: steady load with correlated failure/recovery episodes,
//   - churn: short-lived threads with heavy drift under the hybrid policy,
//   - bigfleet: a standing fleet of 2×10⁵ threads admitted in one batch
//     at t=0 with light churn on top — the largest single re-solves
//     (n = 2×10⁵).
var builtins = []Scenario{
	{
		Name: "diurnal", Servers: 6, Capacity: 1000, Horizon: 86400,
		Policy:  "full-resolve",
		Utility: UtilitySpec{Dist: "powerlaw"},
		Arrivals: ArrivalSpec{
			BaseRate: 0.02,
			Diurnal:  &DiurnalSpec{Amplitude: 0.8, Period: 86400, Phase: -math.Pi / 2},
		},
		Lifetime: LifetimeSpec{Mean: 1800},
		// Tuned so midday peak load nudges the virtual solver into
		// queueing while the overnight trough drains it — the queue
		// trajectory traces the diurnal curve.
		SolveCost: 0.02,
	},
	{
		Name: "flash", Servers: 6, Capacity: 1000, Horizon: 7200,
		Policy:  "full-resolve",
		Utility: UtilitySpec{Dist: "uniform"},
		Arrivals: ArrivalSpec{
			BaseRate: 0.05,
			Bursts: []BurstSpec{
				{Start: 1800, Duration: 300, Multiplier: 15},
				{Start: 5000, Duration: 600, Multiplier: 8},
			},
		},
		Lifetime: LifetimeSpec{Mean: 240},
		// Tuned so the 15× burst drives the virtual solver just past
		// saturation: the queue spikes into the tens and drains after.
		SolveCost: 0.002,
	},
	{
		Name: "failures", Servers: 8, Capacity: 500, Horizon: 14400,
		Policy:   "full-resolve",
		Utility:  UtilitySpec{Dist: "normal"},
		Arrivals: ArrivalSpec{BaseRate: 0.04},
		Lifetime: LifetimeSpec{Mean: 900},
		Failures: &FailureSpec{MTBF: 1800, MTTR: 600, GroupSize: 3},
	},
	{
		Name: "churn", Servers: 4, Capacity: 800, Horizon: 7200,
		Policy: "hybrid", HybridThreshold: 0.83,
		Utility:   UtilitySpec{Dist: "discrete"},
		Arrivals:  ArrivalSpec{BaseRate: 0.1},
		Lifetime:  LifetimeSpec{Mean: 120},
		DriftRate: 0.05,
	},
	{
		Name: "bigfleet", Servers: 64, Capacity: 1000, Horizon: 240,
		Policy:         "full-resolve",
		InitialThreads: 200_000,
		Utility:        UtilitySpec{Dist: "powerlaw"},
		Arrivals:       ArrivalSpec{BaseRate: 0.25},
		Lifetime:       LifetimeSpec{Mean: 600},
		// One virtual solver crunching 2×10⁵ threads: keep the virtual
		// service time sub-second so churn events don't queue unboundedly.
		SolveCost: 1e-6,
	},
}

// Builtin returns a deep copy of the named built-in scenario, safe for
// the caller to mutate.
func Builtin(name string) (*Scenario, bool) {
	for _, sc := range builtins {
		if sc.Name == name {
			c := sc
			if d := sc.Arrivals.Diurnal; d != nil {
				dd := *d
				c.Arrivals.Diurnal = &dd
			}
			c.Arrivals.Bursts = append([]BurstSpec(nil), sc.Arrivals.Bursts...)
			if f := sc.Failures; f != nil {
				ff := *f
				c.Failures = &ff
			}
			return &c, true
		}
	}
	return nil, false
}

// Builtins lists the built-in scenario names in display order.
func Builtins() []string {
	out := make([]string, len(builtins))
	for i, sc := range builtins {
		out[i] = sc.Name
	}
	return out
}
