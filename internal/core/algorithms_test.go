package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"aa/internal/rng"
	"aa/internal/utility"
)

// randomInstance builds a random AA instance with mixed utility families,
// n threads and m servers of capacity c.
func randomInstance(r *rng.Rand, n, m int, c float64) *Instance {
	threads := make([]utility.Func, n)
	for i := range threads {
		switch r.Intn(5) {
		case 0:
			threads[i] = utility.Linear{Slope: r.Uniform(0.1, 3), C: c}
		case 1:
			threads[i] = utility.CappedLinear{Slope: r.Uniform(0.1, 3), Knee: r.Uniform(0.1, c), C: c}
		case 2:
			threads[i] = utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, c/2), C: c}
		case 3:
			threads[i] = utility.SatExp{Scale: r.Uniform(0.5, 5), K: r.Uniform(c/20, c/2), C: c}
		default:
			threads[i] = utility.Power{Scale: r.Uniform(0.5, 2), Beta: r.Uniform(0.3, 1), C: c}
		}
	}
	return &Instance{M: m, C: c, Threads: threads}
}

func assertFeasible(t *testing.T, in *Instance, a Assignment, label string) {
	t.Helper()
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatalf("%s produced infeasible assignment: %v", label, err)
	}
}

func TestAssign1Feasible(t *testing.T) {
	base := rng.New(21)
	for trial := 0; trial < 30; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 1+r.Intn(25), 1+r.Intn(6), 100)
		assertFeasible(t, in, Assign1(in), "Assign1")
	}
}

func TestAssign2Feasible(t *testing.T) {
	base := rng.New(22)
	for trial := 0; trial < 30; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 1+r.Intn(25), 1+r.Intn(6), 100)
		assertFeasible(t, in, Assign2(in), "Assign2")
	}
}

func TestAssign2FewerThreadsThanServers(t *testing.T) {
	// n < m: every thread should land alone and get min(ĉ, C).
	in := &Instance{
		M: 5,
		C: 100,
		Threads: []utility.Func{
			utility.Power{Scale: 1, Beta: 0.5, C: 100},
			utility.Log{Scale: 2, Shift: 10, C: 100},
		},
	}
	a := Assign2(in)
	assertFeasible(t, in, a, "Assign2")
	if a.Server[0] == a.Server[1] {
		t.Errorf("two threads share a server despite m=5")
	}
	so := SuperOptimal(in)
	if u := a.Utility(in); math.Abs(u-so.Total) > 1e-6*(1+so.Total) {
		t.Errorf("n<m utility %v, want super-optimal %v", u, so.Total)
	}
}

func TestAssign2SingleServerMatchesConcaveOptimum(t *testing.T) {
	// With m=1 the super-optimal allocation IS the optimal allocation, and
	// Algorithm 2 should hand it out exactly (all ĉ_i fit by definition).
	r := rng.New(23)
	in := randomInstance(r, 10, 1, 100)
	a := Assign2(in)
	assertFeasible(t, in, a, "Assign2")
	so := SuperOptimal(in)
	if u := a.Utility(in); u < so.Total*(1-1e-9)-1e-9 {
		t.Errorf("m=1 utility %v < super-optimal %v", u, so.Total)
	}
}

func TestTightnessExampleTheoremV17(t *testing.T) {
	// Theorem V.17: 3 threads, 2 servers with C=1. Threads 1,2 have
	// f(x) = min(2x, 1); thread 3 has f(x) = x. The greedy can end at
	// 2.5 while the optimum is 3 — ratio 5/6, still above α.
	in := &Instance{
		M: 2,
		C: 1,
		Threads: []utility.Func{
			utility.CappedLinear{Slope: 2, Knee: 0.5, C: 1},
			utility.CappedLinear{Slope: 2, Knee: 0.5, C: 1},
			utility.Linear{Slope: 1, C: 1},
		},
	}
	so := SuperOptimal(in)
	// Super-optimal allocation: [1/2, 1/2, 1] with F̂ = 3.
	want := []float64{0.5, 0.5, 1}
	for i, w := range want {
		if math.Abs(so.Alloc[i]-w) > 1e-6 {
			t.Errorf("ĉ_%d = %v, want %v", i, so.Alloc[i], w)
		}
	}
	if math.Abs(so.Total-3) > 1e-6 {
		t.Errorf("F̂ = %v, want 3", so.Total)
	}

	opt, err := Exhaustive(in)
	if err != nil {
		t.Fatal(err)
	}
	if u := opt.Utility(in); math.Abs(u-3) > 1e-6 {
		t.Errorf("optimal utility = %v, want 3", u)
	}

	for _, algo := range []struct {
		name string
		run  func(*Instance) Assignment
	}{{"Assign1", Assign1}, {"Assign2", Assign2}} {
		a := algo.run(in)
		assertFeasible(t, in, a, algo.name)
		u := a.Utility(in)
		if u < Alpha*3-1e-6 {
			t.Errorf("%s utility %v below α·OPT = %v", algo.name, u, Alpha*3)
		}
		if u > 3+1e-6 {
			t.Errorf("%s utility %v exceeds optimum", algo.name, u)
		}
	}
}

// The central guarantee: both algorithms achieve at least α times the
// super-optimal utility (hence at least α·OPT) on random instances with
// strictly-increasing utilities and n >= m (the regime of Lemma V.3).
func TestApproximationRatioVsSuperOptimal(t *testing.T) {
	base := rng.New(31)
	for trial := 0; trial < 60; trial++ {
		r := base.Split(uint64(trial))
		m := 1 + r.Intn(5)
		n := m + r.Intn(30)
		c := 100.0
		threads := make([]utility.Func, n)
		for i := range threads {
			// Strictly increasing concave families only.
			switch r.Intn(3) {
			case 0:
				threads[i] = utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, 50), C: c}
			case 1:
				threads[i] = utility.Power{Scale: r.Uniform(0.5, 2), Beta: r.Uniform(0.3, 0.95), C: c}
			default:
				threads[i] = utility.Linear{Slope: r.Uniform(0.1, 3), C: c}
			}
		}
		in := &Instance{M: m, C: c, Threads: threads}
		so := SuperOptimal(in)
		for _, algo := range []struct {
			name string
			run  func(*Instance) Assignment
		}{{"Assign1", Assign1}, {"Assign2", Assign2}} {
			a := algo.run(in)
			assertFeasible(t, in, a, algo.name)
			u := a.Utility(in)
			if u < Alpha*so.Total*(1-1e-9)-1e-9 {
				t.Errorf("trial %d (n=%d m=%d): %s utility %v < α·F̂ = %v",
					trial, n, m, algo.name, u, Alpha*so.Total)
			}
		}
	}
}

// Against the exact optimum on small instances (mixed families, including
// saturating ones where Lemma V.3 may not bind).
func TestApproximationRatioVsExact(t *testing.T) {
	base := rng.New(32)
	for trial := 0; trial < 25; trial++ {
		r := base.Split(uint64(trial))
		m := 1 + r.Intn(3)
		n := 1 + r.Intn(7)
		in := randomInstance(r, n, m, 50)
		opt, err := Exhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		optU := opt.Utility(in)
		assertFeasible(t, in, opt, "Exhaustive")
		for _, algo := range []struct {
			name string
			run  func(*Instance) Assignment
		}{{"Assign1", Assign1}, {"Assign2", Assign2}} {
			a := algo.run(in)
			u := a.Utility(in)
			if u < Alpha*optU*(1-1e-6)-1e-9 {
				t.Errorf("trial %d (n=%d m=%d): %s utility %v < α·OPT = %v",
					trial, n, m, algo.name, u, Alpha*optU)
			}
			if u > optU*(1+1e-6)+1e-9 {
				t.Errorf("trial %d: %s utility %v exceeds optimum %v", trial, algo.name, u, optU)
			}
		}
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	base := rng.New(33)
	for trial := 0; trial < 15; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 1+r.Intn(6), 1+r.Intn(3), 50)
		ex, err := Exhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := BranchAndBound(context.Background(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		exU, bbU := ex.Utility(in), bb.Utility(in)
		if math.Abs(exU-bbU) > 1e-6*(1+exU) {
			t.Errorf("trial %d: B&B %v != exhaustive %v", trial, bbU, exU)
		}
		assertFeasible(t, in, bb, "BranchAndBound")
	}
}

func TestExhaustiveRefusesHugeInstance(t *testing.T) {
	r := rng.New(34)
	in := randomInstance(r, 40, 8, 50)
	if _, err := Exhaustive(in); err == nil {
		t.Error("exhaustive accepted a 8^40 search space")
	}
}

func TestBranchAndBoundNodeLimit(t *testing.T) {
	r := rng.New(35)
	in := randomInstance(r, 12, 4, 50)
	if _, err := BranchAndBound(context.Background(), in, 3); !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

func TestHeuristicsFeasibleAndDeterministic(t *testing.T) {
	in := smallInstance()
	r1, r2 := rng.New(77), rng.New(77)
	type result struct {
		name string
		a, b Assignment
	}
	results := []result{
		{"UU", AssignUU(in), AssignUU(in)},
		{"UR", AssignUR(in, r1), AssignUR(in, r2)},
		{"RU", AssignRU(in, r1), AssignRU(in, r2)},
		{"RR", AssignRR(in, r1), AssignRR(in, r2)},
	}
	for _, res := range results {
		assertFeasible(t, in, res.a, res.name)
		for i := range res.a.Server {
			if res.a.Server[i] != res.b.Server[i] || res.a.Alloc[i] != res.b.Alloc[i] {
				t.Errorf("%s not deterministic under same seed", res.name)
				break
			}
		}
	}
}

func TestUUOptimalAtBetaOne(t *testing.T) {
	// §VII-A: at β = 1 (n = m), UU places one thread per server with all
	// its resources — the optimal assignment.
	base := rng.New(41)
	for trial := 0; trial < 10; trial++ {
		r := base.Split(uint64(trial))
		m := 2 + r.Intn(6)
		in := randomInstance(r, m, m, 100)
		uu := AssignUU(in)
		so := SuperOptimal(in)
		if u := uu.Utility(in); u < so.Total*(1-1e-9)-1e-9 {
			t.Errorf("trial %d: UU at β=1 got %v < F̂ = %v", trial, u, so.Total)
		}
	}
}

func TestUURoundRobinShape(t *testing.T) {
	in := &Instance{
		M: 2,
		C: 10,
		Threads: []utility.Func{
			utility.Linear{Slope: 1, C: 10},
			utility.Linear{Slope: 1, C: 10},
			utility.Linear{Slope: 1, C: 10},
		},
	}
	a := AssignUU(in)
	if a.Server[0] != 0 || a.Server[1] != 1 || a.Server[2] != 0 {
		t.Errorf("round-robin servers = %v", a.Server)
	}
	// Server 0 hosts threads 0 and 2, each getting C/2 = 5.
	if a.Alloc[0] != 5 || a.Alloc[2] != 5 {
		t.Errorf("equal split on server 0 = [%v %v], want [5 5]", a.Alloc[0], a.Alloc[2])
	}
	if a.Alloc[1] != 10 {
		t.Errorf("alone thread alloc = %v, want 10", a.Alloc[1])
	}
}

func TestPolishAllocationsDominatesEqualSplit(t *testing.T) {
	base := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 12, 3, 100)
		uu := AssignUU(in)
		ba := PolishAllocations(in, uu)
		assertFeasible(t, in, ba, "PolishAllocations")
		if ba.Utility(in) < uu.Utility(in)*(1-1e-9)-1e-9 {
			t.Errorf("trial %d: optimal per-server alloc %v < equal split %v",
				trial, ba.Utility(in), uu.Utility(in))
		}
	}
}

func TestAssignFixedRequestIntroExample(t *testing.T) {
	// §I: n threads with f(x) = x^β on one server with capacity C; every
	// thread requests z. Fixed-request serves only C/z of them; the
	// optimal (equal) allocation is ~n^(1-β) times better for large n.
	const (
		c    = 1000.0
		beta = 0.5
		z    = 100.0
		n    = 100
	)
	threads := make([]utility.Func, n)
	requests := make([]float64, n)
	for i := range threads {
		threads[i] = utility.Power{Scale: 1, Beta: beta, C: c}
		requests[i] = z
	}
	in := &Instance{M: 1, C: c, Threads: threads}
	fr := AssignFixedRequest(in, requests)
	assertFeasible(t, in, fr, "FixedRequest")
	served := 0
	for _, a := range fr.Alloc {
		if a > 0 {
			if a != z {
				t.Errorf("served thread got %v, want exactly z=%v", a, z)
			}
			served++
		}
	}
	if served != int(c/z) {
		t.Errorf("served %d threads, want C/z = %d", served, int(c/z))
	}
	frU := fr.Utility(in) // C/z · z^β = C·z^(β−1)
	wantFR := c * math.Pow(z, beta-1)
	if math.Abs(frU-wantFR) > 1e-6*wantFR {
		t.Errorf("fixed-request utility %v, want %v", frU, wantFR)
	}
	optU := SuperOptimal(in).Total // C^β·n^(1−β)
	wantOpt := math.Pow(c, beta) * math.Pow(n, 1-beta)
	if math.Abs(optU-wantOpt) > 1e-6*wantOpt {
		t.Errorf("optimal utility %v, want %v", optU, wantOpt)
	}
	if ratio := optU / frU; ratio < 3 {
		t.Errorf("optimal/fixed ratio %v, expected the large gap the intro describes", ratio)
	}
}

func TestAssignFixedRequestParksOversized(t *testing.T) {
	in := &Instance{
		M: 2,
		C: 10,
		Threads: []utility.Func{
			utility.Linear{Slope: 1, C: 10},
			utility.Linear{Slope: 1, C: 10},
			utility.Linear{Slope: 1, C: 10},
		},
	}
	a := AssignFixedRequest(in, []float64{8, 8, 8})
	assertFeasible(t, in, a, "FixedRequest")
	if a.Alloc[0] != 8 || a.Alloc[1] != 8 {
		t.Errorf("first two should be served: %v", a.Alloc)
	}
	if a.Alloc[2] != 0 {
		t.Errorf("third should be parked with 0, got %v", a.Alloc[2])
	}
}

func TestPartitionReductionSolvable(t *testing.T) {
	// {3,1,1,2,2,1} sums to 10; {3,2} vs {1,1,2,1} both sum 5 — solvable.
	ok, err := HasPartition([]float64{3, 1, 1, 2, 2, 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("solvable PARTITION instance reported unsolvable")
	}
}

func TestPartitionReductionUnsolvable(t *testing.T) {
	// Sum 7 is odd — no partition exists.
	ok, err := HasPartition([]float64{1, 2, 4}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unsolvable PARTITION instance reported solvable")
	}
	// {5, 1, 1} sums to 7 — also unsolvable even with even-count splits.
	ok, err = HasPartition([]float64{5, 1, 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("{5,1,1} reported solvable")
	}
}

func TestPartitionReductionRejectsBadInput(t *testing.T) {
	if _, err := ReduceFromPartition(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReduceFromPartition([]float64{1, -2}); err == nil {
		t.Error("negative number accepted")
	}
}

// Algorithm 2 must beat (or tie) every heuristic in expectation; we test a
// deterministic stronger statement on a skewed instance where careful
// placement matters: a few huge threads and many small ones.
func TestAssign2BeatsHeuristicsOnSkewedInstance(t *testing.T) {
	const c = 1000.0
	threads := make([]utility.Func, 40)
	for i := range threads {
		if i < 4 {
			threads[i] = utility.Linear{Slope: 100, C: c} // huge utility
		} else {
			threads[i] = utility.Log{Scale: 0.1, Shift: 10, C: c}
		}
	}
	in := &Instance{M: 8, C: c, Threads: threads}
	a2 := Assign2(in).Utility(in)
	r := rng.New(55)
	for _, h := range []struct {
		name string
		u    float64
	}{
		{"UU", AssignUU(in).Utility(in)},
		{"UR", AssignUR(in, r).Utility(in)},
		{"RU", AssignRU(in, r).Utility(in)},
		{"RR", AssignRR(in, r).Utility(in)},
	} {
		if a2 < h.u {
			t.Errorf("Assign2 (%v) lost to %s (%v)", a2, h.name, h.u)
		}
	}
	// The gap vs heuristics should be material (>1.5x) here: heuristics
	// split the four slope-100 threads' servers with junk threads.
	if uu := AssignUU(in).Utility(in); a2 < 1.2*uu {
		t.Logf("note: Assign2/UU ratio only %v", a2/uu)
	}
}

func BenchmarkAssign2N100M8(b *testing.B) {
	r := rng.New(1)
	in := randomInstance(r, 100, 8, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assign2(in)
	}
}

func BenchmarkAssign1N100M8(b *testing.B) {
	r := rng.New(1)
	in := randomInstance(r, 100, 8, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assign1(in)
	}
}

func BenchmarkSuperOptimalN100(b *testing.B) {
	r := rng.New(1)
	in := randomInstance(r, 100, 8, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SuperOptimal(in)
	}
}

// Empirical worst-case calibration: search adversarial-ish families
// (capped-linear mixtures — the structure of both the NP-hardness
// reduction and the tightness example) for the lowest Algorithm 2 /
// optimal ratio. The paper proves ≥ α ≈ 0.828 and exhibits 5/6 ≈ 0.833;
// the observed minimum must sit between them.
func TestEmpiricalWorstCaseRatio(t *testing.T) {
	base := rng.New(202)
	worst := 1.0
	var worstSeed int
	for trial := 0; trial < 60; trial++ {
		r := base.Split(uint64(trial))
		m := 2 + r.Intn(2)
		n := m + 1 + r.Intn(4)
		const c = 1.0
		threads := make([]utility.Func, n)
		for i := range threads {
			// Capped-linear with knees near C/2 mimic the tightness
			// construction; a few pure-linear threads play thread 3's role.
			if r.Float64() < 0.3 {
				threads[i] = utility.Linear{Slope: r.Uniform(0.5, 1.5), C: c}
			} else {
				threads[i] = utility.CappedLinear{
					Slope: r.Uniform(1, 3),
					Knee:  r.Uniform(0.3, 0.7),
					C:     c,
				}
			}
		}
		in := &Instance{M: m, C: c, Threads: threads}
		opt, err := BranchAndBound(context.Background(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		optU := opt.Utility(in)
		if optU <= 0 {
			continue
		}
		ratio := Assign2(in).Utility(in) / optU
		if ratio < worst {
			worst, worstSeed = ratio, trial
		}
	}
	t.Logf("worst observed A2/OPT ratio: %.4f (trial %d); proven bound α = %.4f, tightness example = %.4f",
		worst, worstSeed, Alpha, 5.0/6.0)
	if worst < Alpha-1e-9 {
		t.Errorf("observed ratio %v violates the proven bound α = %v", worst, Alpha)
	}
	if worst > 0.999 {
		t.Log("note: no adversarial instance found in this search (all near-optimal)")
	}
}

// Ablation (ext-tail): the paper's slope re-sort of the tail (Algorithm 2
// line 2) is what Lemma V.10 rests on. Quantify its contribution against
// skipping it and against a size-based ordering, on the heavy-tailed
// power-law workload where ordering matters most.
func TestAblationTailOrdering(t *testing.T) {
	base := rng.New(205)
	var bySlope, byUHat, byCHat float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		r := base.Split(uint64(trial))
		n, m := 48, 4
		c := 100.0
		threads := make([]utility.Func, n)
		for i := range threads {
			// Power-law-ish spread of capped-linear utilities: a few huge
			// values, many small, varied knees — tail order decides who
			// gets the fragmented leftovers.
			v := r.PowerLaw(2, 1)
			threads[i] = utility.CappedLinear{Slope: v / 50, Knee: r.Uniform(10, c), C: c}
		}
		in := &Instance{M: m, C: c, Threads: threads}
		gs := Linearize(in, SuperOptimal(in))
		bySlope += Assign2Linearized(in, gs).Utility(in)
		byUHat += assign2TailBy(in, gs, nil).Utility(in)
		byCHat += assign2TailBy(in, gs, chatKey).Utility(in)
	}
	t.Logf("ablation mean utility: slope-sort %.2f, no re-sort %.2f, size-sort %.2f",
		bySlope/trials, byUHat/trials, byCHat/trials)
	// Finding (recorded in EXPERIMENTS.md): on average workloads the three
	// orderings are within a fraction of a percent — the slope re-sort is
	// a worst-case safeguard (it is what Lemma V.10 needs), not an
	// average-case optimization. Assert they stay in a tight band.
	if bySlope < byUHat*0.98 || bySlope < byCHat*0.98 {
		t.Errorf("slope-sorted tail (%v) far below alternatives (%v, %v)", bySlope, byUHat, byCHat)
	}

	// And the worst case the re-sort exists for: residual capacity too
	// small for a big flat tail thread — the steep small thread must go
	// first. Drive the variant directly with hand-built linearizations so
	// the super-optimal step cannot smooth the instance away.
	in2 := &Instance{
		M: 1,
		C: 1,
		Threads: []utility.Func{
			utility.CappedLinear{Slope: 4, Knee: 0.5, C: 1}, // head
			utility.CappedLinear{Slope: 1, Knee: 1.0, C: 1}, // flat tail thread
			utility.CappedLinear{Slope: 3, Knee: 0.3, C: 1}, // steep tail thread
		},
	}
	gs := []Linearized{
		{UHat: 2, CHat: 0.5, C: 1},
		{UHat: 1, CHat: 1.0, C: 1},   // slope 1, but larger UHat
		{UHat: 0.9, CHat: 0.3, C: 1}, // slope 3
	}
	withSort := Assign2Linearized(in2, gs).Utility(in2)
	withoutSort := assign2TailBy(in2, gs, nil).Utility(in2)
	if withSort <= withoutSort {
		t.Errorf("crafted instance: slope sort (%v) should beat unsorted tail (%v)",
			withSort, withoutSort)
	}
	// All variants stay feasible and bounded (smoke assertion).
	r := base.Split(999)
	in := randomInstance(r, 24, 3, 100)
	gs = Linearize(in, SuperOptimal(in))
	for _, a := range []Assignment{Assign2Linearized(in, gs), assign2TailBy(in, gs, nil), assign2TailBy(in, gs, chatKey)} {
		assertFeasible(t, in, a, "tail-order ablation")
	}
}

func chatKey(g Linearized) float64 { return g.CHat }

// assign2TailBy is Algorithm 2 with line 2 replaced for the ablation:
// the tail (threads m+1..n of the g(ĉ) order) is stably re-sorted by
// key, nonincreasing, or left in g(ĉ) order when key is nil. The serving
// step is the production one.
func assign2TailBy(in *Instance, gs []Linearized, key func(Linearized) float64) Assignment {
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return gs[order[a]].UHat > gs[order[b]].UHat })
	if key != nil && len(order) > in.M {
		tail := order[in.M:]
		sort.SliceStable(tail, func(a, b int) bool { return key(gs[tail[a]]) > key(gs[tail[b]]) })
	}
	var out Assignment
	w := NewWorkspace()
	w.serve2(gs, order, w.uniformCaps(in.M, in.C), &out)
	return out
}

// Regression guard for numeric-domain hangs: a large capacity (1e9) once
// spun the generic derivative bisection forever (absolute tolerance below
// the float64 ulp at that magnitude). End-to-end must stay fast.
func TestLargeDomainEndToEnd(t *testing.T) {
	r := rng.New(206)
	const c = 1e9
	threads := make([]utility.Func, 200)
	for i := range threads {
		switch r.Intn(3) {
		case 0:
			threads[i] = utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, c/4), C: c}
		case 1:
			threads[i] = utility.Power{Scale: r.Uniform(0.5, 2), Beta: r.Uniform(0.3, 0.9), C: c}
		default:
			// PCHIP-backed curve over the huge domain: the generic
			// bisection path that used to hang.
			f, err := utility.NewSampled(
				[]float64{0, c / 2, c},
				[]float64{0, r.Uniform(0.5, 2), r.Uniform(2, 4)})
			if err != nil {
				t.Fatal(err)
			}
			threads[i] = f
		}
	}
	in := &Instance{M: 8, C: c, Threads: threads}
	start := time.Now()
	a := Assign2(in)
	elapsed := time.Since(start)
	assertFeasible(t, in, a, "Assign2")
	if elapsed > 30*time.Second {
		t.Errorf("large-domain solve took %v", elapsed)
	}
}
