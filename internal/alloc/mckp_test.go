package alloc

// The Multiple-Choice Knapsack Problem as a test oracle: the closest
// classical relative of AA the paper discusses in §II ("The MCKP problem
// can model utility functions as it considers classes of items with
// different weights and values and chooses one item from each class ...
// However, MCKP only considers a single knapsack, and thus corresponds to
// a restricted form of AA with one server.").
//
// Given n classes, each offering items (weight, value), choose exactly
// one item per class with total weight ≤ capacity, maximizing total
// value. Discretizing a thread's utility function into (allocation,
// utility) pairs turns single-server AA into MCKP exactly, so the tests
// below verify the allocators against this independent formulation.
//
// Two solvers: an exact O(n·C·k) dynamic program and the classical
// LP-greedy (dominance filtering + incremental efficiency ordering, cf.
// Kellerer and Gens–Levner in the paper's related work), which is
// near-optimal for concave classes because their incremental items are
// already efficiency-sorted.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"aa/internal/rng"
	"aa/internal/utility"
)

// mckpItem is one choice within a class.
type mckpItem struct {
	Weight int
	Value  float64
}

// mckpProblem is an MCKP instance. Every class must contain a zero-weight
// item (threads may receive nothing) or the instance may be infeasible;
// mckpFromUtilities always includes one.
type mckpProblem struct {
	Capacity int
	Classes  [][]mckpItem
}

// Validate checks the instance is well formed.
func (p *mckpProblem) Validate() error {
	if p.Capacity < 0 {
		return fmt.Errorf("mckp: negative capacity %d", p.Capacity)
	}
	if len(p.Classes) == 0 {
		return errors.New("mckp: no classes")
	}
	for ci, class := range p.Classes {
		if len(class) == 0 {
			return fmt.Errorf("mckp: class %d is empty", ci)
		}
		for _, it := range class {
			if it.Weight < 0 {
				return fmt.Errorf("mckp: class %d has negative weight %d", ci, it.Weight)
			}
			if math.IsNaN(it.Value) || math.IsInf(it.Value, 0) {
				return fmt.Errorf("mckp: class %d has non-finite value", ci)
			}
		}
	}
	return nil
}

// mckpSolution is a choice of one item index per class.
type mckpSolution struct {
	Pick   []int // Pick[c] indexes Classes[c]
	Value  float64
	Weight int
}

// mckpFromUtilities discretizes single-server AA into MCKP: class i holds
// items (w, f_i(w·unit)) for w = 0..cap_i in steps of one unit.
func mckpFromUtilities(fs []utility.Func, capacity int, unit float64) *mckpProblem {
	p := &mckpProblem{Capacity: capacity}
	for _, f := range fs {
		maxW := int(f.Cap() / unit)
		if maxW > capacity {
			maxW = capacity
		}
		class := make([]mckpItem, 0, maxW+1)
		for w := 0; w <= maxW; w++ {
			class = append(class, mckpItem{Weight: w, Value: f.Value(float64(w) * unit)})
		}
		p.Classes = append(p.Classes, class)
	}
	return p
}

// SolveDP solves the instance exactly by dynamic programming over
// capacity: dp[c] is the best value of the processed classes using
// weight exactly ≤ c. O(classes · capacity · items-per-class).
func (p *mckpProblem) SolveDP() (mckpSolution, error) {
	if err := p.Validate(); err != nil {
		return mckpSolution{}, err
	}
	const negInf = math.SmallestNonzeroFloat64 - math.MaxFloat64
	cap := p.Capacity
	dp := make([]float64, cap+1)
	next := make([]float64, cap+1)
	// picks[c][b] = item chosen for class c in the optimum with budget b.
	picks := make([][]int16, len(p.Classes))
	for b := range dp {
		dp[b] = 0 // zero classes, any budget: value 0
	}
	for ci, class := range p.Classes {
		picks[ci] = make([]int16, cap+1)
		for b := 0; b <= cap; b++ {
			best, bestItem := negInf, -1
			for ii, it := range class {
				if it.Weight > b {
					continue
				}
				if v := dp[b-it.Weight] + it.Value; v > best {
					best, bestItem = v, ii
				}
			}
			if bestItem < 0 {
				return mckpSolution{}, fmt.Errorf("mckp: class %d infeasible at budget %d (no zero-weight item?)", ci, b)
			}
			next[b] = best
			picks[ci][b] = int16(bestItem)
		}
		dp, next = next, dp
	}
	sol := mckpSolution{Pick: make([]int, len(p.Classes)), Value: dp[cap]}
	b := cap
	for ci := len(p.Classes) - 1; ci >= 0; ci-- {
		ii := int(picks[ci][b])
		sol.Pick[ci] = ii
		sol.Weight += p.Classes[ci][ii].Weight
		b -= p.Classes[ci][ii].Weight
	}
	return sol, nil
}

// mckpStep is an incremental (delta-weight, delta-value) step used by the
// LP greedy.
type mckpStep struct {
	class      int
	item       int // index of the item this step upgrades to
	dw         int
	dv         float64
	efficiency float64
}

// SolveGreedy is the classical LP-relaxation greedy: per class, filter
// to the efficient frontier (dominance + LP-dominance), decompose each
// class into incremental upgrade steps, sort all steps by efficiency
// (Δvalue/Δweight) and apply them while capacity remains. For classes
// derived from concave utilities the steps are exactly the marginal
// gains, so the greedy is optimal up to the last fractional step —
// matching the Fox/Galil allocators from another direction.
func (p *mckpProblem) SolveGreedy() (mckpSolution, error) {
	if err := p.Validate(); err != nil {
		return mckpSolution{}, err
	}
	n := len(p.Classes)
	sol := mckpSolution{Pick: make([]int, n)}
	perClass := make([][]mckpStep, n)
	for ci, class := range p.Classes {
		frontier := mckpFrontier(class)
		if len(frontier) == 0 {
			return mckpSolution{}, fmt.Errorf("mckp: class %d has no feasible items", ci)
		}
		// Start every class at its lightest frontier item.
		sol.Pick[ci] = frontier[0]
		sol.Weight += class[frontier[0]].Weight
		sol.Value += class[frontier[0]].Value
		for k := 1; k < len(frontier); k++ {
			prev, cur := class[frontier[k-1]], class[frontier[k]]
			dw := cur.Weight - prev.Weight
			dv := cur.Value - prev.Value
			if dw <= 0 || dv <= 0 {
				continue
			}
			perClass[ci] = append(perClass[ci], mckpStep{
				class: ci, item: frontier[k], dw: dw, dv: dv,
				efficiency: dv / float64(dw),
			})
		}
	}
	if sol.Weight > p.Capacity {
		return mckpSolution{}, errors.New("mckp: lightest choices already exceed capacity")
	}
	// Incremental greedy: each class exposes only its next upgrade step
	// (the frontier guarantees those steps have nonincreasing efficiency
	// within a class); repeatedly apply the fitting step of greatest
	// efficiency until nothing fits.
	ptr := make([]int, n)
	for {
		best := -1
		var bestStep mckpStep
		for ci := 0; ci < n; ci++ {
			if ptr[ci] >= len(perClass[ci]) {
				continue
			}
			st := perClass[ci][ptr[ci]]
			if sol.Weight+st.dw > p.Capacity {
				continue
			}
			if best < 0 || st.efficiency > bestStep.efficiency {
				best, bestStep = ci, st
			}
		}
		if best < 0 {
			break
		}
		ptr[best]++
		sol.Pick[best] = bestStep.item
		sol.Weight += bestStep.dw
		sol.Value += bestStep.dv
	}
	return sol, nil
}

// mckpFrontier returns indices of the LP-efficient items of a class in
// increasing weight order: dominated items (heavier and no more
// valuable) and LP-dominated items (below the upper convex hull in
// weight–value space) are removed.
func mckpFrontier(class []mckpItem) []int {
	idx := make([]int, len(class))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := class[idx[a]], class[idx[b]]
		if ia.Weight != ib.Weight {
			return ia.Weight < ib.Weight
		}
		return ia.Value > ib.Value
	})
	// Remove dominated items (keep strictly increasing value).
	var kept []int
	bestValue := math.Inf(-1)
	for _, i := range idx {
		if class[i].Value > bestValue {
			kept = append(kept, i)
			bestValue = class[i].Value
		}
	}
	// Upper convex hull in (weight, value): LP-dominance filtering.
	var hull []int
	for _, i := range kept {
		for len(hull) >= 2 {
			a, b := class[hull[len(hull)-2]], class[hull[len(hull)-1]]
			c := class[i]
			// Remove b only if it is strictly under the chord a–c;
			// collinear points stay so that concave classes keep their
			// fine-grained unit steps (coarse steps would strand
			// residual capacity in the integral greedy).
			lhs := (b.Value - a.Value) * float64(c.Weight-a.Weight)
			rhs := (c.Value - a.Value) * float64(b.Weight-a.Weight)
			if lhs < rhs-1e-12*(1+math.Abs(rhs)) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, i)
	}
	return hull
}

func TestMCKPValidate(t *testing.T) {
	ok := &mckpProblem{Capacity: 5, Classes: [][]mckpItem{{{0, 0}, {2, 3}}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*mckpProblem{
		{Capacity: -1, Classes: [][]mckpItem{{{0, 0}}}},
		{Capacity: 5},
		{Capacity: 5, Classes: [][]mckpItem{{}}},
		{Capacity: 5, Classes: [][]mckpItem{{{-1, 0}}}},
		{Capacity: 5, Classes: [][]mckpItem{{{0, math.NaN()}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMCKPSolveDPHandExample(t *testing.T) {
	// Two classes, capacity 5:
	// class 0: (0,0), (2,3), (4,4)
	// class 1: (0,0), (3,5)
	// Best: class0→(2,3) + class1→(3,5) = 8 at weight 5.
	p := &mckpProblem{
		Capacity: 5,
		Classes: [][]mckpItem{
			{{0, 0}, {2, 3}, {4, 4}},
			{{0, 0}, {3, 5}},
		},
	}
	sol, err := p.SolveDP()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 8 {
		t.Errorf("value %v, want 8", sol.Value)
	}
	if sol.Weight != 5 {
		t.Errorf("weight %d, want 5", sol.Weight)
	}
	if p.Classes[0][sol.Pick[0]].Weight != 2 || p.Classes[1][sol.Pick[1]].Weight != 3 {
		t.Errorf("picks %v", sol.Pick)
	}
}

func TestMCKPSolveDPInfeasibleWithoutZeroItem(t *testing.T) {
	p := &mckpProblem{
		Capacity: 1,
		Classes:  [][]mckpItem{{{5, 10}}},
	}
	if _, err := p.SolveDP(); err == nil {
		t.Error("infeasible instance solved")
	}
}

func TestMCKPGreedyFeasibleAndNearDP(t *testing.T) {
	base := rng.New(81)
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		nClasses := 2 + r.Intn(6)
		capacity := 20 + r.Intn(60)
		p := &mckpProblem{Capacity: capacity}
		for c := 0; c < nClasses; c++ {
			class := []mckpItem{{0, 0}}
			items := 1 + r.Intn(8)
			w, v := 0, 0.0
			for k := 0; k < items; k++ {
				w += 1 + r.Intn(8)
				v += r.Uniform(0, 5)
				class = append(class, mckpItem{Weight: w, Value: v})
			}
			p.Classes = append(p.Classes, class)
		}
		dp, err := p.SolveDP()
		if err != nil {
			t.Fatal(err)
		}
		gr, err := p.SolveGreedy()
		if err != nil {
			t.Fatal(err)
		}
		if gr.Weight > p.Capacity {
			t.Fatalf("trial %d: greedy weight %d > capacity %d", trial, gr.Weight, p.Capacity)
		}
		if gr.Value > dp.Value+1e-9 {
			t.Fatalf("trial %d: greedy %v beats exact DP %v", trial, gr.Value, dp.Value)
		}
		// Classical guarantee on frontier greedy is 1/2; random instances
		// do far better. Assert the conservative bound.
		if gr.Value < 0.5*dp.Value-1e-9 {
			t.Errorf("trial %d: greedy %v below half of optimal %v", trial, gr.Value, dp.Value)
		}
	}
}

// The §II connection: single-server AA with discretized concave
// utilities IS an MCKP instance; the MCKP DP must agree with the
// allocation DP and with the concave greedy.
func TestMCKPAgreesWithAllocatorsOnConcaveClasses(t *testing.T) {
	base := rng.New(82)
	for trial := 0; trial < 10; trial++ {
		r := base.Split(uint64(trial))
		n := 2 + r.Intn(5)
		fs := make([]utility.Func, n)
		for i := range fs {
			switch r.Intn(3) {
			case 0:
				fs[i] = utility.Log{Scale: r.Uniform(1, 5), Shift: r.Uniform(2, 20), C: 40}
			case 1:
				fs[i] = utility.SatExp{Scale: r.Uniform(1, 5), K: r.Uniform(5, 20), C: 40}
			default:
				fs[i] = utility.CappedLinear{Slope: r.Uniform(0.1, 2), Knee: r.Uniform(5, 35), C: 40}
			}
		}
		capacity := 15 + r.Intn(60)
		p := mckpFromUtilities(fs, capacity, 1)
		mckpSol, err := p.SolveDP()
		if err != nil {
			t.Fatal(err)
		}
		allocSol := DPExact(fs, float64(capacity), 1)
		if math.Abs(mckpSol.Value-allocSol.Total) > 1e-9*(1+allocSol.Total) {
			t.Errorf("trial %d: MCKP DP %v != allocation DP %v", trial, mckpSol.Value, allocSol.Total)
		}
		greedy := Greedy(fs, float64(capacity), 1)
		if math.Abs(mckpSol.Value-greedy.Total) > 1e-9*(1+greedy.Total) {
			t.Errorf("trial %d: MCKP DP %v != Fox greedy %v (concave ⇒ greedy exact)",
				trial, mckpSol.Value, greedy.Total)
		}
		// The MCKP LP-greedy should also be exact here (concave classes
		// have fully efficient frontiers).
		gr, err := p.SolveGreedy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gr.Value-mckpSol.Value) > 0.02*(1+mckpSol.Value) {
			t.Errorf("trial %d: MCKP greedy %v vs exact %v", trial, gr.Value, mckpSol.Value)
		}
	}
}

func TestMCKPFrontier(t *testing.T) {
	class := []mckpItem{
		{0, 0},
		{1, 5},   // efficient
		{2, 4},   // dominated by (1,5)
		{3, 7},   // on hull
		{4, 7.5}, // LP-dominated by chord (3,7)-(6,12)? slope check below
		{6, 12},
	}
	frontier := mckpFrontier(class)
	// Must include 0-weight start and be increasing in weight.
	if class[frontier[0]].Weight != 0 {
		t.Errorf("frontier does not start at weight 0: %v", frontier)
	}
	prevW := -1
	for _, i := range frontier {
		if class[i].Weight <= prevW {
			t.Errorf("frontier not strictly increasing in weight: %v", frontier)
		}
		prevW = class[i].Weight
	}
	// The dominated item (2,4) must be gone.
	for _, i := range frontier {
		if class[i].Weight == 2 && class[i].Value == 4 {
			t.Error("dominated item survived")
		}
	}
}

func TestMCKPGreedyTightCapacity(t *testing.T) {
	// Capacity forces everyone to the zero item.
	p := &mckpProblem{
		Capacity: 0,
		Classes: [][]mckpItem{
			{{0, 0}, {1, 10}},
			{{0, 0}, {2, 20}},
		},
	}
	sol, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 || sol.Weight != 0 {
		t.Errorf("expected all-zero solution, got %+v", sol)
	}
}

func BenchmarkMCKPDP(b *testing.B) {
	fs := make([]utility.Func, 20)
	for i := range fs {
		fs[i] = utility.Log{Scale: float64(i%5 + 1), Shift: float64(i%7 + 3), C: 100}
	}
	p := mckpFromUtilities(fs, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveDP(); err != nil {
			b.Fatal(err)
		}
	}
}
