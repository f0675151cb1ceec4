package core

import (
	"math"
	"testing"

	"aa/internal/rng"
	"aa/internal/utility"
)

// smallInstance returns a well-formed 2-server, 4-thread instance.
func smallInstance() *Instance {
	return &Instance{
		M: 2,
		C: 100,
		Threads: []utility.Func{
			utility.Linear{Slope: 1, C: 100},
			utility.Log{Scale: 5, Shift: 10, C: 100},
			utility.SatExp{Scale: 3, K: 20, C: 100},
			utility.Power{Scale: 2, Beta: 0.5, C: 100},
		},
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := smallInstance().Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	cases := []struct {
		name string
		in   Instance
	}{
		{"no servers", Instance{M: 0, C: 10, Threads: []utility.Func{utility.Linear{Slope: 1, C: 10}}}},
		{"zero capacity", Instance{M: 1, C: 0, Threads: []utility.Func{utility.Linear{Slope: 1, C: 10}}}},
		{"nan capacity", Instance{M: 1, C: math.NaN(), Threads: []utility.Func{utility.Linear{Slope: 1, C: 10}}}},
		{"no threads", Instance{M: 1, C: 10}},
		{"nil utility", Instance{M: 1, C: 10, Threads: []utility.Func{nil}}},
	}
	for _, tc := range cases {
		if err := tc.in.Validate(); err == nil {
			t.Errorf("%s: invalid instance accepted", tc.name)
		}
	}
}

func TestAssignmentUtilityAndLoads(t *testing.T) {
	in := smallInstance()
	a := Assignment{
		Server: []int{0, 0, 1, 1},
		Alloc:  []float64{40, 60, 50, 50},
	}
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatalf("feasible assignment rejected: %v", err)
	}
	loads := a.ServerLoads(in)
	if loads[0] != 100 || loads[1] != 100 {
		t.Errorf("loads = %v, want [100 100]", loads)
	}
	want := in.Threads[0].Value(40) + in.Threads[1].Value(60) +
		in.Threads[2].Value(50) + in.Threads[3].Value(50)
	if got := a.Utility(in); math.Abs(got-want) > 1e-12 {
		t.Errorf("utility = %v, want %v", got, want)
	}
}

func TestAssignmentValidateRejectsInfeasible(t *testing.T) {
	in := smallInstance()
	cases := []struct {
		name string
		a    Assignment
	}{
		{"wrong length", Assignment{Server: []int{0}, Alloc: []float64{1}}},
		{"bad server", Assignment{Server: []int{0, 0, 5, 1}, Alloc: []float64{1, 1, 1, 1}}},
		{"unassigned", Assignment{Server: []int{0, 0, -1, 1}, Alloc: []float64{1, 1, 1, 1}}},
		{"negative alloc", Assignment{Server: []int{0, 0, 1, 1}, Alloc: []float64{-1, 1, 1, 1}}},
		{"thread over C", Assignment{Server: []int{0, 0, 1, 1}, Alloc: []float64{101, 0, 1, 1}}},
		{"server overloaded", Assignment{Server: []int{0, 0, 0, 1}, Alloc: []float64{50, 50, 50, 1}}},
	}
	for _, tc := range cases {
		if err := tc.a.Validate(in, 1e-9); err == nil {
			t.Errorf("%s: infeasible assignment accepted", tc.name)
		}
	}
}

func TestNewAssignmentUnassigned(t *testing.T) {
	a := NewAssignment(3)
	for i, s := range a.Server {
		if s != -1 {
			t.Errorf("thread %d starts on server %d, want -1", i, s)
		}
	}
}

// TestCappedThreadsRestrictDomain: a thread whose curve was defined
// over a wider domain than C is capped at C — as a utility.Capped curve
// and in the workspace's per-server split.
func TestCappedThreadsRestrictDomain(t *testing.T) {
	f := utility.Linear{Slope: 2, C: 100} // wider domain than C
	capped := utility.Capped{F: f, C: 10}
	if got := capped.Cap(); got != 10 {
		t.Errorf("capped Cap() = %v, want 10", got)
	}
	if got := capped.Value(50); got != 20 {
		t.Errorf("capped Value(50) = %v, want f(10)=20", got)
	}
	if got := capped.Deriv(10); got != 0 {
		t.Errorf("capped Deriv(10) = %v, want 0", got)
	}
	if got := capped.InverseDeriv(1); got != 10 {
		t.Errorf("capped InverseDeriv(1) = %v, want 10", got)
	}
	res := NewWorkspace().SplitGroup([]utility.Func{f}, []int{0}, 10, 10, SplitConcave, nil)
	if res.Alloc[0] != 10 || res.Total != 20 {
		t.Errorf("SplitGroup on a 10-unit server = %v (total %v), want [10] (total 20)", res.Alloc, res.Total)
	}
}

func TestSuperOptimalRespectsBudgetAndCaps(t *testing.T) {
	in := smallInstance()
	so := SuperOptimal(in)
	sum := 0.0
	for i, c := range so.Alloc {
		if c < -1e-12 || c > in.C+1e-9 {
			t.Errorf("ĉ_%d = %v outside [0, C]", i, c)
		}
		sum += c
	}
	if sum > float64(in.M)*in.C*(1+1e-9) {
		t.Errorf("Σĉ = %v > mC = %v", sum, float64(in.M)*in.C)
	}
	if so.Total <= 0 {
		t.Errorf("F̂ = %v, want > 0", so.Total)
	}
}

func TestSuperOptimalUpperBoundsFeasible(t *testing.T) {
	// Lemma V.2: any feasible assignment's utility is at most F̂.
	in := smallInstance()
	so := SuperOptimal(in)
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		a := AssignRR(in, r)
		if err := a.Validate(in, 1e-9); err != nil {
			t.Fatalf("heuristic produced infeasible assignment: %v", err)
		}
		if u := a.Utility(in); u > so.Total*(1+1e-9) {
			t.Errorf("feasible utility %v exceeds super-optimal %v", u, so.Total)
		}
	}
}

func TestSuperOptimalSaturatesStrictlyIncreasing(t *testing.T) {
	// Lemma V.3: with strictly increasing utilities and n >= m, the
	// super-optimal allocation uses the entire pooled capacity m·C.
	in := &Instance{
		M: 2,
		C: 50,
		Threads: []utility.Func{
			utility.Power{Scale: 1, Beta: 0.6, C: 50},
			utility.Log{Scale: 2, Shift: 5, C: 50},
			utility.Power{Scale: 3, Beta: 0.8, C: 50},
		},
	}
	so := SuperOptimal(in)
	sum := 0.0
	for _, c := range so.Alloc {
		sum += c
	}
	if math.Abs(sum-100) > 1e-6*100 {
		t.Errorf("Σĉ = %v, want mC = 100", sum)
	}
}

func TestSuperOptimalPartitionShape(t *testing.T) {
	// On the NP-hardness instance every thread's ĉ must equal its knee.
	nums := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	in, err := ReduceFromPartition(nums)
	if err != nil {
		t.Fatal(err)
	}
	so := SuperOptimal(in)
	for i, v := range nums {
		if math.Abs(so.Alloc[i]-v) > 1e-6 {
			t.Errorf("ĉ_%d = %v, want knee %v", i, so.Alloc[i], v)
		}
	}
	if want := PartitionTarget(nums); math.Abs(so.Total-want) > 1e-6 {
		t.Errorf("F̂ = %v, want %v", so.Total, want)
	}
}

func TestLinearizedShape(t *testing.T) {
	g := Linearized{UHat: 10, CHat: 4, C: 8}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 2.5}, {2, 5}, {4, 10}, {6, 10}, {8, 10}, {100, 10},
	}
	for _, tc := range cases {
		if got := g.Value(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("g(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := g.Slope(); got != 2.5 {
		t.Errorf("Slope() = %v, want 2.5", got)
	}
	if got := g.Deriv(1); got != 2.5 {
		t.Errorf("Deriv(1) = %v, want 2.5", got)
	}
	if got := g.Deriv(5); got != 0 {
		t.Errorf("Deriv(5) = %v, want 0", got)
	}
	if got := g.InverseDeriv(2); got != 4 {
		t.Errorf("InverseDeriv(2) = %v, want 4", got)
	}
	if got := g.InverseDeriv(3); got != 0 {
		t.Errorf("InverseDeriv(3) = %v, want 0", got)
	}
}

func TestLinearizedDegenerateZeroCHat(t *testing.T) {
	g := Linearized{UHat: 7, CHat: 0, C: 8}
	if got := g.Value(0); got != 7 {
		t.Errorf("g(0) = %v, want 7 (constant)", got)
	}
	if got := g.Value(5); got != 7 {
		t.Errorf("g(5) = %v, want 7", got)
	}
	if got := g.Slope(); got != 0 {
		t.Errorf("Slope() = %v, want 0", got)
	}
}

func TestLinearizeLowerBoundsOriginal(t *testing.T) {
	// Lemma V.4: g_i(x) <= f_i(x) for all x in [0, C].
	in := smallInstance()
	so := SuperOptimal(in)
	gs := Linearize(in, so)
	for i, f := range in.Threads {
		g := gs[i]
		for x := 0.0; x <= in.C; x += 0.5 {
			if g.Value(x) > f.Value(x)+1e-9*(1+f.Value(x)) {
				t.Errorf("thread %d: g(%v)=%v > f(%v)=%v", i, x, g.Value(x), x, f.Value(x))
			}
		}
		// Equality at the super-optimal point.
		if math.Abs(g.Value(so.Alloc[i])-f.Value(so.Alloc[i])) > 1e-9 {
			t.Errorf("thread %d: g(ĉ) != f(ĉ)", i)
		}
	}
}

func TestAlphaValue(t *testing.T) {
	if math.Abs(Alpha-0.8284271247461903) > 1e-15 {
		t.Errorf("Alpha = %v, want 2(√2−1)", Alpha)
	}
	if Alpha <= 0.828 {
		t.Errorf("Alpha = %v, paper claims > 0.828", Alpha)
	}
}

// ServerLoads returns the total allocation on each server.
func (a Assignment) ServerLoads(in *Instance) []float64 {
	loads := make([]float64, in.M)
	for i, s := range a.Server {
		if s >= 0 && s < in.M {
			loads[s] += a.Alloc[i]
		}
	}
	return loads
}
