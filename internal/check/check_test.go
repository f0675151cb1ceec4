package check

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

func demoInstance() *core.Instance {
	return &core.Instance{
		M: 2, C: 100,
		Threads: []utility.Func{
			utility.Log{Scale: 5, Shift: 10, C: 100},
			utility.Linear{Slope: 1, C: 30},
			utility.SatExp{Scale: 3, K: 20, C: 100},
		},
	}
}

func TestFeasibleAcceptsSolverOutput(t *testing.T) {
	in := demoInstance()
	for _, a := range []core.Assignment{
		core.Assign2(in),
		core.Assign1(in),
		core.AssignUU(in),
	} {
		if err := Feasible(in, a, DefaultEps); err != nil {
			t.Errorf("valid assignment rejected: %v", err)
		}
	}
}

func TestFeasibleRejects(t *testing.T) {
	in := demoInstance()
	ok := func() core.Assignment {
		return core.Assignment{Server: []int{0, 1, 0}, Alloc: []float64{50, 30, 50}}
	}
	cases := []struct {
		name  string
		wreck func(a *core.Assignment)
	}{
		{"invalid server", func(a *core.Assignment) { a.Server[1] = 2 }},
		{"negative server", func(a *core.Assignment) { a.Server[0] = -1 }},
		{"negative allocation", func(a *core.Assignment) { a.Alloc[0] = -1 }},
		{"NaN allocation", func(a *core.Assignment) { a.Alloc[2] = math.NaN() }},
		{"past thread cap", func(a *core.Assignment) { a.Alloc[1] = 31 }},
		{"overloaded server", func(a *core.Assignment) { a.Alloc[0] = 80 }},
		{"length mismatch", func(a *core.Assignment) { a.Alloc = a.Alloc[:2] }},
	}
	for _, tc := range cases {
		a := ok()
		tc.wreck(&a)
		err := Feasible(in, a, DefaultEps)
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: got %v, want ErrInfeasible", tc.name, err)
		}
	}
	if err := Feasible(in, ok(), DefaultEps); err != nil {
		t.Fatalf("baseline assignment rejected: %v", err)
	}
}

func TestFeasibleToleratesRoundoff(t *testing.T) {
	in := demoInstance()
	a := core.Assignment{
		Server: []int{0, 1, 0},
		// A hair past the cap and the server capacity, within ε·(1+·).
		Alloc: []float64{50, 30 + 1e-8, 50 + 1e-8},
	}
	if err := Feasible(in, a, DefaultEps); err != nil {
		t.Errorf("roundoff-sized overshoot rejected: %v", err)
	}
}

func TestAllocationInvariants(t *testing.T) {
	fs := []utility.Func{
		utility.Linear{Slope: 2, C: 10},
		utility.Linear{Slope: 1, C: 10},
	}
	if err := Allocation(fs, []float64{10, 5}, 15, DefaultEps); err != nil {
		t.Errorf("feasible allocation rejected: %v", err)
	}
	for name, xs := range map[string][]float64{
		"over budget":  {10, 10},
		"over cap":     {11, 1},
		"negative":     {-1, 5},
		"wrong length": {5},
		"infinite":     {math.Inf(1), 0},
	} {
		if err := Allocation(fs, xs, 15, DefaultEps); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: got %v, want ErrInfeasible", name, err)
		}
	}
}

func TestRatioReportBounds(t *testing.T) {
	if err := (RatioReport{F: 90, FHat: 100, Ratio: 0.9}).CheckAlpha(0); err != nil {
		t.Errorf("ratio 0.9 > α rejected: %v", err)
	}
	if err := (RatioReport{F: 50, FHat: 100, Ratio: 0.5}).CheckAlpha(0); !errors.Is(err, ErrRatio) {
		t.Errorf("ratio 0.5 < α accepted: %v", err)
	}
	if err := (RatioReport{F: 101, FHat: 100, Ratio: 1.01}).CheckBound(0); !errors.Is(err, ErrRatio) {
		t.Errorf("F above F̂ accepted: %v", err)
	}
	if err := (RatioReport{F: 0, FHat: 0, Ratio: 1}).CheckAlpha(0); err != nil {
		t.Errorf("empty instance (F = F̂ = 0) rejected: %v", err)
	}
}

func TestRatioComputesAgainstSuperOpt(t *testing.T) {
	in := demoInstance()
	a := core.Assign2(in)
	rep := Ratio(in, a)
	if rep.FHat != core.SuperOptimal(in).Total {
		t.Errorf("FHat %v, want the super-optimal total", rep.FHat)
	}
	if math.Abs(rep.F-a.Utility(in)) > 1e-12 {
		t.Errorf("F %v, want the assignment utility %v", rep.F, a.Utility(in))
	}
	if err := rep.CheckAlpha(0); err != nil {
		t.Errorf("Assign2 on the demo instance violates α: %v", err)
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	if Enabled() {
		t.Fatal("checking enabled before Enable")
	}
	Enable()
	if !Enabled() {
		t.Fatal("Enable did not stick")
	}
	Disable()
	if Enabled() {
		t.Fatal("Disable did not stick")
	}
}

func TestCountersCountChecksAndViolations(t *testing.T) {
	in := demoInstance()
	c0, v0 := Totals()
	if err := Feasible(in, core.Assign2(in), DefaultEps); err != nil {
		t.Fatal(err)
	}
	bad := core.Assignment{Server: []int{0, 0, 0}, Alloc: []float64{200, 30, 50}}
	if err := Feasible(in, bad, DefaultEps); err == nil {
		t.Fatal("infeasible assignment accepted")
	}
	c1, v1 := Totals()
	if c1-c0 != 2 {
		t.Errorf("aa_check_total grew by %d, want 2", c1-c0)
	}
	if v1-v0 != 1 {
		t.Errorf("aa_check_violations_total grew by %d, want 1", v1-v0)
	}
}

// The acceptance-criterion property test: Feasible and Ratio hold for
// Assign1, Assign2, all four §VII heuristics, the marginal-gain greedy,
// and alloc.Concave across the full figure corpus at figure scale
// (m = 8, C = 1000), with zero growth of aa_check_violations_total.
func TestSolversSatisfyInvariantsAcrossFigureCorpus(t *testing.T) {
	const (
		m = 8
		c = 1000.0
	)
	_, v0 := Totals()
	base := rng.New(7)
	for wi, w := range FigureWorkloads() {
		for _, beta := range []int{1, 5, 15} {
			for trial := 0; trial < 2; trial++ {
				r := base.SplitPath(uint64(wi), uint64(beta), uint64(trial))
				n := beta * m
				in, err := gen.Instance(w.Dist, m, c, n, r)
				if err != nil {
					t.Fatalf("%s β=%d: %v", w.Name, beta, err)
				}
				where := fmt.Sprintf("%s β=%d trial %d", w.Name, beta, trial)

				so := core.SuperOptimal(in)
				if err := Allocation(in.Threads, so.Alloc, float64(m)*c, DefaultEps); err != nil {
					t.Errorf("%s: super-optimal allocation: %v", where, err)
				}
				cc := alloc.Concave(in.Threads, c)
				if err := Allocation(in.Threads, cc.Alloc, c, DefaultEps); err != nil {
					t.Errorf("%s: Concave on one server: %v", where, err)
				}

				gs := core.Linearize(in, so)
				solvers := []struct {
					label      string
					a          core.Assignment
					guaranteed bool
				}{
					{"A1", core.Assign1Linearized(in, gs), true},
					{"A2", core.Assign2Linearized(in, gs), true},
					{"GM", core.AssignGreedyMarginal(in), false},
					{"UU", core.AssignUU(in), false},
					{"UR", core.AssignUR(in, r), false},
					{"RU", core.AssignRU(in, r), false},
					{"RR", core.AssignRR(in, r), false},
				}
				for _, sc := range solvers {
					if err := Feasible(in, sc.a, DefaultEps); err != nil {
						t.Errorf("%s: %s: %v", where, sc.label, err)
						continue
					}
					rr := RatioAgainst(so.Total, in, sc.a)
					if sc.guaranteed {
						err = rr.CheckAlpha(0)
					} else {
						err = rr.CheckBound(0)
					}
					if err != nil {
						t.Errorf("%s: %s: %v", where, sc.label, err)
					}
				}
			}
		}
	}
	if _, v1 := Totals(); v1 != v0 {
		t.Errorf("aa_check_violations_total grew by %d, want 0", v1-v0)
	}
}
