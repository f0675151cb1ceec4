package hosting

import (
	"fmt"
	"math"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

func demoDeployment() *Deployment {
	return &Deployment{
		Hosts:    2,
		Capacity: 100,
		Services: []Service{
			{Name: "api", Demand: 500, Revenue: 0.01, Curve: LinearCurve{PerUnit: 10}},
			{Name: "search", Demand: 200, Revenue: 0.05, Curve: SaturatingCurve{Max: 300, K: 40}},
			{Name: "batch", Demand: 1000, Revenue: 0.001, Curve: LinearCurve{PerUnit: 20}},
			{Name: "recs", Demand: 150, Revenue: 0.03, Curve: SaturatingCurve{Max: 200, K: 25}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := demoDeployment().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Deployment{
		{Hosts: 0, Capacity: 1, Services: []Service{{Curve: LinearCurve{1}}}},
		{Hosts: 1, Capacity: 0, Services: []Service{{Curve: LinearCurve{1}}}},
		{Hosts: 1, Capacity: 1},
		{Hosts: 1, Capacity: 1, Services: []Service{{Demand: -1, Curve: LinearCurve{1}}}},
		{Hosts: 1, Capacity: 1, Services: []Service{{Demand: 1}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid deployment accepted", i)
		}
	}
}

func TestCurves(t *testing.T) {
	lc := LinearCurve{PerUnit: 3}
	if lc.Rate(10) != 30 || lc.Rate(-1) != 0 {
		t.Errorf("linear curve: %v, %v", lc.Rate(10), lc.Rate(-1))
	}
	sc := SaturatingCurve{Max: 100, K: 50}
	if sc.Rate(50) != 50 {
		t.Errorf("saturating at K should be Max/2, got %v", sc.Rate(50))
	}
	if sc.Rate(0) != 0 {
		t.Errorf("saturating at 0 = %v", sc.Rate(0))
	}
	if sc.Rate(1e9) > 100 {
		t.Errorf("saturating exceeded Max")
	}
}

func TestRevenueUtilityIsValidAAUtility(t *testing.T) {
	d := demoDeployment()
	in, err := d.Instance()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range in.Threads {
		if err := utility.Validate(f, 500, 1e-6); err != nil {
			t.Errorf("service %d (%s): %v", i, d.Services[i].Name, err)
		}
	}
}

func TestUtilityCapsAtDemand(t *testing.T) {
	// The api service saturates its 500 req/s demand at 50 units: beyond
	// that, more resource earns nothing.
	d := demoDeployment()
	in, _ := d.Instance()
	api := in.Threads[0]
	if got := api.Value(50); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("api at 50 units = %v, want 5.0 $/s", got)
	}
	if got := api.Value(100); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("api at 100 units = %v, want capped 5.0 $/s", got)
	}
}

func TestSolveRespectsModel(t *testing.T) {
	d := demoDeployment()
	in, _ := d.Instance()
	a := core.Assign2(in)
	if err := a.Validate(in, 1e-6); err != nil {
		t.Fatal(err)
	}
	so := core.SuperOptimal(in)
	if u := a.Utility(in); u < core.Alpha*so.Total-1e-9 {
		t.Errorf("assignment utility %v below guarantee %v", u, core.Alpha*so.Total)
	}
}

func TestSimulateRevenueTracksPrediction(t *testing.T) {
	d := demoDeployment()
	in, _ := d.Instance()
	a := core.Assign2(in)
	res, err := d.Simulate(a, 400, 1e9, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue <= 0 {
		t.Fatal("no revenue earned")
	}
	// With effectively unbounded queues and stationary Poisson load the
	// measured revenue should be within a few percent of the model.
	if math.Abs(res.Revenue-res.Predicted) > 0.05*res.Predicted {
		t.Errorf("revenue %v vs predicted %v", res.Revenue, res.Predicted)
	}
}

func TestSimulateAADominatesUU(t *testing.T) {
	d := demoDeployment()
	in, _ := d.Instance()
	aa := core.Assign2(in)
	uu := core.AssignUU(in)
	resAA, err := d.Simulate(aa, 300, 1e9, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	resUU, err := d.Simulate(uu, 300, 1e9, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if resAA.Revenue < resUU.Revenue*0.98 {
		t.Errorf("AA revenue %v materially below UU revenue %v", resAA.Revenue, resUU.Revenue)
	}
}

func TestSimulateDropsUnderTinyQueues(t *testing.T) {
	d := &Deployment{
		Hosts:    1,
		Capacity: 10,
		Services: []Service{
			// Demand far above what the capacity can serve.
			{Name: "flood", Demand: 1000, Revenue: 1, Curve: LinearCurve{PerUnit: 1}},
		},
	}
	in, _ := d.Instance()
	a := core.Assign2(in)
	res, err := d.Simulate(a, 50, 100, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped[0] == 0 {
		t.Error("expected drops with demand 1000 and service rate 10")
	}
}

func TestSimulateRejectsInfeasibleAssignment(t *testing.T) {
	d := demoDeployment()
	bad := core.Assignment{
		Server: []int{0, 0, 0, 0},
		Alloc:  []float64{100, 100, 100, 100}, // 400 > C on host 0
	}
	if _, err := d.Simulate(bad, 10, 1e9, rng.New(1)); err == nil {
		t.Error("infeasible assignment accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	d := demoDeployment()
	in, _ := d.Instance()
	a := core.Assign2(in)
	r1, err := d.Simulate(a, 100, 1e9, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Simulate(a, 100, 1e9, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Revenue != r2.Revenue {
		t.Errorf("same seed, different revenue: %v vs %v", r1.Revenue, r2.Revenue)
	}
}

func TestSimulateLatencyShrinksWithAllocation(t *testing.T) {
	// One service near saturation: more resource -> lower mean latency.
	d := &Deployment{
		Hosts:    1,
		Capacity: 100,
		Services: []Service{
			{Name: "svc", Demand: 90, Revenue: 1, Curve: LinearCurve{PerUnit: 1}},
		},
	}
	latencyAt := func(alloc float64) float64 {
		a := core.Assignment{Server: []int{0}, Alloc: []float64{alloc}}
		res, err := d.Simulate(a, 300, 1e9, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency(0, 300)
	}
	tight := latencyAt(92)  // barely above demand: queues persist
	roomy := latencyAt(100) // headroom absorbs bursts
	if !(roomy < tight) {
		t.Errorf("latency with headroom %v not below tight %v", roomy, tight)
	}
}

func TestMeanLatencyEdgeCases(t *testing.T) {
	res := SimResult{
		Served:    []float64{0, 0},
		MeanQueue: []float64{5, 0},
	}
	if l := res.MeanLatency(0, 10); !math.IsInf(l, 1) {
		t.Errorf("starved queueing service latency = %v, want +Inf", l)
	}
	if l := res.MeanLatency(1, 10); l != 0 {
		t.Errorf("idle service latency = %v, want 0", l)
	}
	if l := res.MeanLatency(0, 0); l != 0 {
		t.Errorf("zero-duration latency = %v, want 0", l)
	}
}

// Diurnal integration: demand shifts between a day phase (API-heavy) and
// a night phase (batch-heavy). Re-solving the assignment per phase must
// earn at least as much as freezing either phase's assignment for the
// whole day — the §VIII "utilities change over time" scenario on the
// hosting substrate.
func TestDiurnalRebalancing(t *testing.T) {
	day := &Deployment{
		Hosts:    2,
		Capacity: 100,
		Services: []Service{
			{Name: "api", Demand: 900, Revenue: 0.02, Curve: LinearCurve{PerUnit: 10}},
			{Name: "search", Demand: 300, Revenue: 0.03, Curve: SaturatingCurve{Max: 400, K: 30}},
			{Name: "batch", Demand: 50, Revenue: 0.001, Curve: LinearCurve{PerUnit: 20}},
			{Name: "reports", Demand: 20, Revenue: 0.001, Curve: LinearCurve{PerUnit: 20}},
		},
	}
	night := &Deployment{
		Hosts:    2,
		Capacity: 100,
		Services: []Service{
			{Name: "api", Demand: 60, Revenue: 0.02, Curve: LinearCurve{PerUnit: 10}},
			{Name: "search", Demand: 30, Revenue: 0.03, Curve: SaturatingCurve{Max: 400, K: 30}},
			{Name: "batch", Demand: 3000, Revenue: 0.001, Curve: LinearCurve{PerUnit: 20}},
			{Name: "reports", Demand: 2500, Revenue: 0.001, Curve: LinearCurve{PerUnit: 20}},
		},
	}
	const phaseSeconds = 200
	r := rng.New(61)

	solveFor := func(d *Deployment) core.Assignment {
		in, err := d.Instance()
		if err != nil {
			t.Fatal(err)
		}
		return core.Assign2(in)
	}
	simulate := func(d *Deployment, a core.Assignment, seed uint64) float64 {
		res, err := d.Simulate(a, phaseSeconds, 1e9, r.Split(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Revenue
	}

	dayAssign := solveFor(day)
	nightAssign := solveFor(night)

	// Adaptive: right assignment per phase.
	adaptive := simulate(day, dayAssign, 1) + simulate(night, nightAssign, 2)
	// Frozen day assignment all 24h.
	frozenDay := simulate(day, dayAssign, 3) + simulate(night, dayAssign, 4)
	// Frozen night assignment all 24h.
	frozenNight := simulate(day, nightAssign, 5) + simulate(night, nightAssign, 6)

	if adaptive < frozenDay*(1-0.02) || adaptive < frozenNight*(1-0.02) {
		t.Errorf("re-solving per phase (%v) lost to frozen day (%v) / night (%v)",
			adaptive, frozenDay, frozenNight)
	}
	// And the gap should be material against at least one frozen policy —
	// otherwise the phases were not really different.
	worst := frozenDay
	if frozenNight < worst {
		worst = frozenNight
	}
	if adaptive < worst*1.05 {
		t.Logf("note: adaptive %v vs worst frozen %v — phases may be too similar", adaptive, worst)
	}
}

// TestDeploymentSolveMatchesDirect pins that Deployment.Solve is exactly
// assign2 on the deployment's revenue-rate instance, through the
// engine's assign2 backend, with the super-optimal bound alongside, and
// that a malformed deployment fails before reaching the engine.
func TestDeploymentSolveMatchesDirect(t *testing.T) {
	r := rng.New(23)
	d := &Deployment{Hosts: 3, Capacity: 100}
	for i := 0; i < 24; i++ {
		var c Curve = LinearCurve{PerUnit: r.Uniform(1, 20)}
		if i%2 == 1 {
			c = SaturatingCurve{Max: r.Uniform(50, 400), K: r.Uniform(5, 60)}
		}
		d.Services = append(d.Services, Service{
			Name:    fmt.Sprintf("svc%d", i),
			Demand:  r.Uniform(50, 1000),
			Revenue: r.Uniform(0.001, 0.05),
			Curve:   c,
		})
	}
	in, err := d.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Assign2(in)
	got, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Server {
		if got.Assignment.Server[i] != want.Server[i] || got.Assignment.Alloc[i] != want.Alloc[i] {
			t.Fatalf("service %d: got (%d, %v), want (%d, %v)",
				i, got.Assignment.Server[i], got.Assignment.Alloc[i], want.Server[i], want.Alloc[i])
		}
	}
	if wantRev := want.Utility(in); got.Revenue != wantRev {
		t.Fatalf("revenue %v, want %v", got.Revenue, wantRev)
	}
	if so := core.SuperOptimal(in).Total; got.Bound != so {
		t.Fatalf("bound %v, want %v", got.Bound, so)
	}

	if _, err := (&Deployment{Hosts: 0, Capacity: 100}).Solve(); err == nil {
		t.Fatal("invalid deployment solved without error")
	}
}
