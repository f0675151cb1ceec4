package cloud

import (
	"math"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

func demoFleet() *Fleet {
	const c = 64.0
	return &Fleet{
		Machines: 2,
		Capacity: c,
		Customers: []Customer{
			{Name: "bursty", Pay: utility.Power{Scale: 1, Beta: 0.5, C: c}},
			{Name: "steady", Pay: utility.Log{Scale: 3, Shift: 4, C: c}},
			{Name: "small", Pay: utility.CappedLinear{Slope: 0.8, Knee: 4, C: c}},
			{Name: "whale", Pay: utility.Linear{Slope: 0.4, C: c}},
			{Name: "medium", Pay: utility.SatExp{Scale: 6, K: 10, C: c}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := demoFleet().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Fleet{
		{Machines: 0, Capacity: 1, Customers: []Customer{{Pay: utility.Linear{Slope: 1, C: 1}}}},
		{Machines: 1, Capacity: 0, Customers: []Customer{{Pay: utility.Linear{Slope: 1, C: 1}}}},
		{Machines: 1, Capacity: 1},
		{Machines: 1, Capacity: 1, Customers: []Customer{{}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSolveRevenueFeasibleAndBounded(t *testing.T) {
	f := demoFleet()
	rev, a, err := SolveRevenue(f)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := f.Instance()
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	so := core.SuperOptimal(in)
	if rev < core.Alpha*so.Total-1e-9 || rev > so.Total+1e-9 {
		t.Errorf("revenue %v outside [α·F̂, F̂] = [%v, %v]", rev, core.Alpha*so.Total, so.Total)
	}
}

func TestDefaultTiers(t *testing.T) {
	tiers := DefaultTiers(64)
	if len(tiers) != 4 {
		t.Fatalf("got %d tiers", len(tiers))
	}
	if tiers[0].Size != 2 || tiers[3].Size != 32 {
		t.Errorf("tier sizes: %v, %v", tiers[0].Size, tiers[3].Size)
	}
	for _, tier := range tiers {
		if tier.Price <= 0 || tier.Size <= 0 {
			t.Errorf("bad tier %+v", tier)
		}
	}
}

func TestChooseTiersSurplus(t *testing.T) {
	// A customer whose payment curve saturates at 4 units should choose
	// the small tier (size 2, price 2): surplus at 2 units is
	// 0.8·2−2 < 0... pick a curve where surplus is clearly positive.
	const c = 64.0
	f := &Fleet{
		Machines: 1,
		Capacity: c,
		Customers: []Customer{
			// Strong payer: Pay(2)=8·(1−e^-1)≈5.06 ⇒ small-tier surplus ~3.
			{Name: "hot", Pay: utility.SatExp{Scale: 8, K: 2, C: c}},
			// Near-zero payer: no tier has positive surplus.
			{Name: "cold", Pay: utility.Linear{Slope: 0.001, C: c}},
		},
	}
	choices := ChooseTiers(f, DefaultTiers(c))
	if choices[0].Tier < 0 {
		t.Error("hot customer opted out")
	}
	if choices[1].Tier != -1 {
		t.Errorf("cold customer picked tier %d, want opt-out", choices[1].Tier)
	}
}

func TestTierRevenueFeasible(t *testing.T) {
	f := demoFleet()
	tiers := DefaultTiers(f.Capacity)
	choices := ChooseTiers(f, tiers)
	rev, a := TierRevenue(f, tiers, choices)
	in, _ := f.Instance()
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	if rev < 0 {
		t.Errorf("negative revenue %v", rev)
	}
}

func TestTierRevenueCapacityPressure(t *testing.T) {
	// 20 customers all wanting xlarge on one machine: only 2 fit.
	const c = 64.0
	f := &Fleet{Machines: 1, Capacity: c}
	for i := 0; i < 20; i++ {
		f.Customers = append(f.Customers, Customer{
			Name: "t",
			Pay:  utility.Power{Scale: 20, Beta: 0.9, C: c},
		})
	}
	tiers := DefaultTiers(c)
	choices := ChooseTiers(f, tiers)
	_, a := TierRevenue(f, tiers, choices)
	placed := 0
	for _, alloc := range a.Alloc {
		if alloc > 0 {
			placed++
		}
	}
	if placed != 2 {
		t.Errorf("placed %d xlarge VMs on a 64-unit machine, want 2", placed)
	}
}

func TestAADominatesTiersOnRandomFleets(t *testing.T) {
	base := rng.New(17)
	wins := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		r := base.Split(uint64(trial))
		f := RandomFleet(4, 64, 40, 0.3, 0.9, r)
		aaRev, _, err := SolveRevenue(f)
		if err != nil {
			t.Fatal(err)
		}
		tiers := DefaultTiers(f.Capacity)
		tierRev, _ := TierRevenue(f, tiers, ChooseTiers(f, tiers))
		if aaRev >= tierRev {
			wins++
		}
	}
	if wins < trials {
		t.Errorf("AA beat tier pricing in only %d/%d trials", wins, trials)
	}
}

func TestIntroGapSeriesMatchesClosedForm(t *testing.T) {
	// §I: fixed = C·z^(β−1) constant in n; opt = C^β·n^(1−β).
	const (
		c    = 1000.0
		z    = 100.0
		beta = 0.5
	)
	pts := IntroGapSeries(c, z, beta, []int{10, 40, 160})
	for _, pt := range pts {
		wantFixed := c * math.Pow(z, beta-1)
		if pt.N*int(z) >= int(c) { // only when requests saturate capacity
			if math.Abs(pt.FixedTotal-wantFixed) > 1e-6*wantFixed {
				t.Errorf("n=%d: fixed %v, want %v", pt.N, pt.FixedTotal, wantFixed)
			}
		}
		wantOpt := math.Pow(c, beta) * math.Pow(float64(pt.N), 1-beta)
		if math.Abs(pt.OptTotal-wantOpt) > 1e-6*wantOpt {
			t.Errorf("n=%d: opt %v, want %v", pt.N, pt.OptTotal, wantOpt)
		}
	}
	// The ratio must grow with n (the intro's "arbitrarily better").
	if !(pts[0].Ratio < pts[1].Ratio && pts[1].Ratio < pts[2].Ratio) {
		t.Errorf("ratios not increasing: %v %v %v", pts[0].Ratio, pts[1].Ratio, pts[2].Ratio)
	}
}

func TestRandomFleetShape(t *testing.T) {
	f := RandomFleet(3, 32, 12, 0.4, 0.8, rng.New(5))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Customers) != 12 {
		t.Errorf("%d customers", len(f.Customers))
	}
	for _, cust := range f.Customers {
		if err := utility.Validate(cust.Pay, 200, 1e-9); err != nil {
			t.Errorf("%s: %v", cust.Name, err)
		}
	}
}

// TestEngineBackendMatchesDirect pins that SolveRevenue is exactly
// assign2 on the fleet's derived instance, through the engine's assign2
// backend, and that a malformed fleet fails before reaching the engine.
func TestEngineBackendMatchesDirect(t *testing.T) {
	f := RandomFleet(3, 64, 20, 0.3, 0.9, rng.New(21))
	in, err := f.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Assign2(in)
	rev, got, err := SolveRevenue(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Server {
		if got.Server[i] != want.Server[i] || got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("customer %d: got (%d, %v), want (%d, %v)",
				i, got.Server[i], got.Alloc[i], want.Server[i], want.Alloc[i])
		}
	}
	if wantRev := want.Utility(in); rev != wantRev {
		t.Fatalf("revenue %v, want %v", rev, wantRev)
	}

	if _, _, err := SolveRevenue(&Fleet{Machines: 0, Capacity: 64}); err == nil {
		t.Fatal("invalid fleet solved without error")
	}
}
