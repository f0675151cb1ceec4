package hetero

import (
	"math"
	"strings"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

func randomInstance(r *rng.Rand, n int, caps []float64) *Instance {
	maxCap := 0.0
	for _, c := range caps {
		if c > maxCap {
			maxCap = c
		}
	}
	threads := make([]utility.Func, n)
	for i := range threads {
		switch r.Intn(3) {
		case 0:
			threads[i] = utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, maxCap/2), C: maxCap}
		case 1:
			threads[i] = utility.Power{Scale: r.Uniform(0.5, 2), Beta: r.Uniform(0.3, 0.95), C: maxCap}
		default:
			threads[i] = utility.SatExp{Scale: r.Uniform(0.5, 4), K: r.Uniform(maxCap/20, maxCap/2), C: maxCap}
		}
	}
	return &Instance{Caps: append([]float64(nil), caps...), Threads: threads}
}

func TestValidate(t *testing.T) {
	in := randomInstance(rng.New(1), 4, []float64{50, 100})
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Instance{
		{Caps: nil, Threads: in.Threads},
		{Caps: []float64{0}, Threads: in.Threads},
		{Caps: []float64{-5}, Threads: in.Threads},
		{Caps: []float64{10}},
		{Caps: []float64{10}, Threads: []utility.Func{nil}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAccessors(t *testing.T) {
	in := &Instance{
		Caps:    []float64{30, 100, 70},
		Threads: []utility.Func{utility.Linear{Slope: 1, C: 100}},
	}
	if in.MaxCap() != 100 || in.TotalCap() != 200 || in.M() != 3 || in.N() != 1 {
		t.Errorf("accessors: max=%v total=%v m=%d n=%d", in.MaxCap(), in.TotalCap(), in.M(), in.N())
	}
}

func TestAssignFeasible(t *testing.T) {
	base := rng.New(2)
	capSets := [][]float64{
		{100, 100},
		{20, 200},
		{50, 100, 150, 25},
		{1000},
	}
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		caps := capSets[trial%len(capSets)]
		in := randomInstance(r, 1+r.Intn(20), caps)
		a := Assign(in)
		if err := a.Validate(in, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSuperOptimalIsUpperBound(t *testing.T) {
	base := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 2+r.Intn(10), []float64{30, 90, 60})
		so := SuperOptimal(in)
		for _, a := range []Assignment{Assign(in), AssignRoundRobin(in), AssignProportional(in)} {
			if err := a.Validate(in, 1e-9); err != nil {
				t.Fatal(err)
			}
			if u := a.Utility(in); u > so.Total*(1+1e-9) {
				t.Errorf("trial %d: utility %v exceeds bound %v", trial, u, so.Total)
			}
		}
	}
}

// With equal capacities the heterogeneous algorithm is the homogeneous
// Algorithm 2: the same servers and the same allocation bits.
func TestReducesToHomogeneousAlgorithm2(t *testing.T) {
	base := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		r := base.Split(uint64(trial))
		const c = 100.0
		in := randomInstance(r, 3+r.Intn(15), []float64{c, c, c})
		coreIn := &core.Instance{M: 3, C: c, Threads: in.Threads}
		want := core.Assign2(coreIn)
		got := Assign(in)
		for i := range want.Server {
			if got.Server[i] != want.Server[i] || math.Float64bits(got.Alloc[i]) != math.Float64bits(want.Alloc[i]) {
				t.Fatalf("trial %d thread %d: hetero (server %d, alloc %v) != homogeneous (server %d, alloc %v)",
					trial, i, got.Server[i], got.Alloc[i], want.Server[i], want.Alloc[i])
			}
		}
	}
}

// Empirical approximation quality against the exact optimum on tiny
// instances with skewed capacities.
func TestEmpiricalRatioVsExact(t *testing.T) {
	base := rng.New(5)
	worst := 1.0
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		caps := []float64{r.Uniform(10, 40), r.Uniform(50, 150)}
		in := randomInstance(r, 2+r.Intn(5), caps)
		opt, err := Exhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		optU := opt.Utility(in)
		gotU := Assign(in).Utility(in)
		if optU > 0 {
			if ratio := gotU / optU; ratio < worst {
				worst = ratio
			}
		}
		if gotU > optU*(1+1e-6) {
			t.Errorf("trial %d: heuristic %v beats 'optimal' %v", trial, gotU, optU)
		}
	}
	// The homogeneous guarantee is α ≈ 0.828; empirically the
	// heterogeneous variant stays well above it on these seeds.
	if worst < core.Alpha {
		t.Errorf("worst observed ratio %v below α = %v", worst, core.Alpha)
	}
}

func TestAssignBeatsBaselinesOnSkewedInstance(t *testing.T) {
	// One big server, one tiny one; a few heavy hitters and junk threads.
	const maxCap = 160.0
	threads := []utility.Func{
		utility.Linear{Slope: 10, C: maxCap},
		utility.Linear{Slope: 8, C: maxCap},
		utility.Log{Scale: 0.1, Shift: 5, C: maxCap},
		utility.Log{Scale: 0.1, Shift: 5, C: maxCap},
		utility.Log{Scale: 0.1, Shift: 5, C: maxCap},
	}
	in := &Instance{Caps: []float64{160, 20}, Threads: threads}
	a := Assign(in).Utility(in)
	rr := AssignRoundRobin(in).Utility(in)
	prop := AssignProportional(in).Utility(in)
	if a < rr {
		t.Errorf("Assign %v worse than round robin %v", a, rr)
	}
	if a < prop*0.95 {
		t.Errorf("Assign %v materially worse than proportional %v", a, prop)
	}
}

func TestExhaustiveRefusesHuge(t *testing.T) {
	in := randomInstance(rng.New(6), 30, []float64{10, 20, 30, 40})
	if _, err := Exhaustive(in); err == nil {
		t.Error("4^30 search accepted")
	}
}

func TestRoundRobinSharesCapacityEqually(t *testing.T) {
	in := &Instance{
		Caps: []float64{60, 30},
		Threads: []utility.Func{
			utility.Linear{Slope: 1, C: 60},
			utility.Linear{Slope: 1, C: 60},
			utility.Linear{Slope: 1, C: 60},
			utility.Linear{Slope: 1, C: 60},
		},
	}
	a := AssignRoundRobin(in)
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Threads 0, 2 on server 0 (cap 60): 30 each; threads 1, 3 on
	// server 1 (cap 30): 15 each.
	want := []float64{30, 15, 30, 15}
	for i, w := range want {
		if math.Abs(a.Alloc[i]-w) > 1e-9 {
			t.Errorf("thread %d alloc %v, want %v", i, a.Alloc[i], w)
		}
	}
}

func TestSkewSeries(t *testing.T) {
	tbl, err := SkewSeries(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"ext-hetero", "A/SO", "A/RR", "0.85"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 5 {
		t.Errorf("got %d rows, want 5", len(tbl.Rows))
	}
	if _, err := SkewSeries(0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}
