package core

import (
	"context"
	"testing"

	"aa/internal/rng"
	"aa/internal/utility"
)

func TestAssignGreedyMarginalFeasible(t *testing.T) {
	base := rng.New(61)
	for trial := 0; trial < 15; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 1+r.Intn(20), 1+r.Intn(5), 100)
		a := AssignGreedyMarginal(in)
		assertFeasible(t, in, a, "AssignGreedyMarginal")
	}
}

func TestAssignGreedyMarginalDominatesUU(t *testing.T) {
	base := rng.New(62)
	wins, trials := 0, 15
	for trial := 0; trial < trials; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 8+r.Intn(20), 2+r.Intn(4), 100)
		gm := AssignGreedyMarginal(in).Utility(in)
		uu := AssignUU(in).Utility(in)
		if gm >= uu*(1-1e-9) {
			wins++
		}
	}
	if wins < trials-1 {
		t.Errorf("greedy-marginal beat UU in only %d/%d trials", wins, trials)
	}
}

func TestImproveNeverDecreasesUtility(t *testing.T) {
	base := rng.New(63)
	for trial := 0; trial < 12; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 4+r.Intn(15), 2+r.Intn(3), 100)
		for _, start := range []Assignment{
			Assign2(in),
			AssignUU(in),
			AssignRR(in, r),
		} {
			before := start.Utility(in)
			improved, moves := Improve(in, start, 0)
			assertFeasible(t, in, improved, "Improve")
			after := improved.Utility(in)
			if after < before*(1-1e-9)-1e-9 {
				t.Errorf("trial %d: Improve decreased utility %v -> %v (%d moves)",
					trial, before, after, moves)
			}
		}
	}
}

func TestImproveRespectsBound(t *testing.T) {
	r := rng.New(64)
	in := randomInstance(r, 12, 3, 100)
	so := SuperOptimal(in)
	improved, _ := Improve(in, Assign2(in), 0)
	if u := improved.Utility(in); u > so.Total*(1+1e-9) {
		t.Errorf("improved utility %v exceeds super-optimal bound %v", u, so.Total)
	}
}

func TestImproveFixesBadAssignment(t *testing.T) {
	// Two high-slope threads dumped on the same server while another
	// server idles: one relocation fixes it.
	in := &Instance{
		M: 2,
		C: 10,
		Threads: []utility.Func{
			utility.CappedLinear{Slope: 1, Knee: 10, C: 10},
			utility.CappedLinear{Slope: 1, Knee: 10, C: 10},
		},
	}
	bad := Assignment{Server: []int{0, 0}, Alloc: []float64{5, 5}}
	improved, moves := Improve(in, bad, 0)
	assertFeasible(t, in, improved, "Improve")
	if moves < 1 {
		t.Errorf("expected at least one move, got %d", moves)
	}
	if u := improved.Utility(in); u < 20-1e-9 {
		t.Errorf("utility %v, want 20 (one thread per server)", u)
	}
}

func TestImproveMoveLimit(t *testing.T) {
	r := rng.New(65)
	in := randomInstance(r, 15, 3, 100)
	_, moves := Improve(in, AssignRR(in, r), 2)
	if moves > 2 {
		t.Errorf("move budget exceeded: %d", moves)
	}
}

func TestImproveAtLocalOptimumIsNoOp(t *testing.T) {
	// Running Improve twice: the second pass must make zero moves.
	r := rng.New(66)
	in := randomInstance(r, 10, 3, 100)
	once, _ := Improve(in, Assign2(in), 0)
	again, moves := Improve(in, once, 0)
	if moves != 0 {
		t.Errorf("second Improve pass made %d moves", moves)
	}
	if again.Utility(in) != once.Utility(in) {
		t.Errorf("idempotence violated: %v vs %v", again.Utility(in), once.Utility(in))
	}
}

// The motivating case: two-class discrete workloads are where the
// linearized greedy leaves a few percent on the table; local search
// should claw a chunk of it back.
func TestImproveClosesDiscreteGap(t *testing.T) {
	base := rng.New(67)
	var sumBefore, sumAfter, sumOpt float64
	for trial := 0; trial < 10; trial++ {
		r := base.Split(uint64(trial))
		// Two-class instance: values 1 or 5, capped-linear style curves.
		n, m := 8, 2
		threads := make([]utility.Func, n)
		for i := range threads {
			v := 1.0
			if r.Float64() > 0.7 {
				v = 5.0
			}
			threads[i] = utility.CappedLinear{Slope: v / 40, Knee: 40 + r.Uniform(0, 20), C: 100}
		}
		in := &Instance{M: m, C: 100, Threads: threads}
		a2 := Assign2(in)
		improved, _ := Improve(in, a2, 0)
		opt, err := BranchAndBound(context.Background(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		sumBefore += a2.Utility(in)
		sumAfter += improved.Utility(in)
		sumOpt += opt.Utility(in)
	}
	if sumAfter < sumBefore {
		t.Errorf("local search lost utility in aggregate: %v -> %v", sumBefore, sumAfter)
	}
	// Local search should recover at least half of the gap to optimal.
	gapBefore := sumOpt - sumBefore
	gapAfter := sumOpt - sumAfter
	if gapBefore > 1e-9 && gapAfter > 0.5*gapBefore {
		t.Errorf("local search closed too little: gap %v -> %v (optimal %v)",
			gapBefore, gapAfter, sumOpt)
	}
}

func BenchmarkImproveN40(b *testing.B) {
	r := rng.New(1)
	in := randomInstance(r, 40, 4, 100)
	start := Assign2(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Improve(in, start, 0)
	}
}

func TestPolishAllocationsNeverDecreases(t *testing.T) {
	base := rng.New(68)
	for trial := 0; trial < 15; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 4+r.Intn(20), 2+r.Intn(4), 100)
		a2 := Assign2(in)
		polished := PolishAllocations(in, a2)
		assertFeasible(t, in, polished, "PolishAllocations")
		if polished.Utility(in) < a2.Utility(in)*(1-1e-9)-1e-9 {
			t.Errorf("trial %d: polish decreased utility %v -> %v",
				trial, a2.Utility(in), polished.Utility(in))
		}
		for i := range a2.Server {
			if polished.Server[i] != a2.Server[i] {
				t.Fatalf("polish moved thread %d", i)
			}
		}
	}
}

func TestPolishReclaimsResiduals(t *testing.T) {
	// Build an assignment that leaves an obvious residual: a lone linear
	// thread allocated half its server. Polishing must give it the rest.
	in := &Instance{
		M:       1,
		C:       10,
		Threads: []utility.Func{utility.Linear{Slope: 1, C: 10}},
	}
	a := Assignment{Server: []int{0}, Alloc: []float64{5}}
	polished := PolishAllocations(in, a)
	if polished.Alloc[0] != 10 {
		t.Errorf("polish left residual: alloc %v, want 10", polished.Alloc[0])
	}
}

func TestImproveSwapFixesTightInstance(t *testing.T) {
	// Partition-flavored tight instance: servers full, relocation is
	// useless (no residual anywhere) but a swap fixes the pairing.
	// Threads: knees 6,4 on server 0 and 4,6 on server 1 with C=10 is
	// already optimal; craft a bad start instead: (6,6) and (4,4).
	in := &Instance{
		M: 2,
		C: 10,
		Threads: []utility.Func{
			utility.CappedLinear{Slope: 1, Knee: 6, C: 10},
			utility.CappedLinear{Slope: 1, Knee: 6, C: 10},
			utility.CappedLinear{Slope: 1, Knee: 4, C: 10},
			utility.CappedLinear{Slope: 1, Knee: 4, C: 10},
		},
	}
	bad := Assignment{
		Server: []int{0, 0, 1, 1},
		Alloc:  []float64{6, 4, 4, 4}, // server 0 full, server 1 holds 8/10
	}
	assertFeasible(t, in, bad, "start")
	improved, moves := Improve(in, bad, 0)
	assertFeasible(t, in, improved, "Improve")
	// Optimal pairs a 6-knee with a 4-knee per server: utility 20.
	if u := improved.Utility(in); u < 20-1e-6 {
		t.Errorf("utility %v after %d moves, want 20 (swap needed)", u, moves)
	}
}
