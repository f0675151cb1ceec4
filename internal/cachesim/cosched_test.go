package cachesim

// Pair co-scheduling as a test baseline: the related-work approach from
// the paper's §II (Jiang et al.). Divide 2m threads into m pairs, each
// pair sharing one socket's cache without partitioning, so as to
// maximize total co-run throughput. The paper's criticism — co-scheduling
// needs the performance of *groups* of threads, which explodes
// combinatorially — shows in the inputs: the cost model is a measured
// pairwise co-run matrix, O(n²) co-run measurements against AA's O(n·W)
// solo profiling. TestAAPartitioningBeatsOptimalCoScheduling compares
// the two on this package's simulator.
//
// For moderate n the optimal pairing is found by exact DP over subsets
// (O(2^n · n)); a greedy matcher handles larger inputs.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
)

// pairCost is a symmetric matrix: pairCost[i][j] is the total value
// (e.g. combined throughput — higher is better) of co-running threads i
// and j on one socket. The diagonal is unused.
type pairCost [][]float64

// Validate checks the matrix is square, symmetric and finite.
func (pc pairCost) Validate() error {
	n := len(pc)
	if n == 0 {
		return errors.New("cosched: empty cost matrix")
	}
	for i := range pc {
		if len(pc[i]) != n {
			return fmt.Errorf("cosched: row %d has %d entries, want %d", i, len(pc[i]), n)
		}
		for j := range pc[i] {
			if math.IsNaN(pc[i][j]) || math.IsInf(pc[i][j], 0) {
				return fmt.Errorf("cosched: non-finite cost at (%d,%d)", i, j)
			}
			if i != j && math.Abs(pc[i][j]-pc[j][i]) > 1e-9*(1+math.Abs(pc[i][j])) {
				return fmt.Errorf("cosched: asymmetric cost at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// pairing assigns each thread a partner; Pairs lists each pair once.
type pairing struct {
	Pairs [][2]int
	Value float64
}

// maxPairThreads bounds optimalPairs, whose subset DP holds 2^n states.
const maxPairThreads = 22

// optimalPairs finds the maximum-value perfect matching of an even
// number of threads, at most maxPairThreads, by DP over subsets.
func optimalPairs(pc pairCost) (pairing, error) {
	if err := pc.Validate(); err != nil {
		return pairing{}, err
	}
	n := len(pc)
	if n%2 != 0 {
		return pairing{}, fmt.Errorf("cosched: %d threads cannot be paired", n)
	}
	if n > maxPairThreads {
		return pairing{}, fmt.Errorf("cosched: n=%d exceeds exact limit %d", n, maxPairThreads)
	}
	full := (1 << n) - 1
	dp := make([]float64, full+1)
	choice := make([]int, full+1) // packed pair (i<<8|j) chosen for this subset
	for s := 1; s <= full; s++ {
		dp[s] = math.Inf(-1)
		choice[s] = -1
	}
	dp[0] = 0
	for s := 0; s <= full; s++ {
		if math.IsInf(dp[s], -1) || bits.OnesCount(uint(s))%2 != 0 {
			continue
		}
		if s == full {
			continue
		}
		// Always match the lowest unset thread — avoids double counting.
		i := bits.TrailingZeros(uint(^s))
		for j := i + 1; j < n; j++ {
			if s&(1<<j) != 0 {
				continue
			}
			t := s | 1<<i | 1<<j
			if v := dp[s] + pc[i][j]; v > dp[t] {
				dp[t] = v
				choice[t] = i<<8 | j
			}
		}
	}
	if math.IsInf(dp[full], -1) {
		return pairing{}, errors.New("cosched: no perfect matching found")
	}
	out := pairing{Value: dp[full]}
	for s := full; s != 0; {
		packed := choice[s]
		i, j := packed>>8, packed&0xff
		out.Pairs = append(out.Pairs, [2]int{i, j})
		s &^= 1<<i | 1<<j
	}
	return out, nil
}

// greedyPairs pairs threads greedily by descending pair value — the
// practical heuristic for large n where the subset DP is infeasible.
func greedyPairs(pc pairCost) (pairing, error) {
	if err := pc.Validate(); err != nil {
		return pairing{}, err
	}
	n := len(pc)
	if n%2 != 0 {
		return pairing{}, fmt.Errorf("cosched: %d threads cannot be paired", n)
	}
	used := make([]bool, n)
	var out pairing
	for k := 0; k < n/2; k++ {
		bi, bj, best := -1, -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if used[j] {
					continue
				}
				if pc[i][j] > best {
					bi, bj, best = i, j, pc[i][j]
				}
			}
		}
		used[bi], used[bj] = true, true
		out.Pairs = append(out.Pairs, [2]int{bi, bj})
		out.Value += best
	}
	return out, nil
}

// roundRobinPairs pairs threads (0,1), (2,3), ... — the naive baseline.
func roundRobinPairs(pc pairCost) (pairing, error) {
	if err := pc.Validate(); err != nil {
		return pairing{}, err
	}
	n := len(pc)
	if n%2 != 0 {
		return pairing{}, fmt.Errorf("cosched: %d threads cannot be paired", n)
	}
	var out pairing
	for i := 0; i < n; i += 2 {
		out.Pairs = append(out.Pairs, [2]int{i, i + 1})
		out.Value += pc[i][i+1]
	}
	return out, nil
}

// Servers converts a pairing into a thread→socket map (pair k on socket
// k), for feeding co-run simulators.
func (p pairing) Servers(n int) []int {
	servers := make([]int, n)
	for k, pair := range p.Pairs {
		servers[pair[0]] = k
		servers[pair[1]] = k
	}
	return servers
}

func symMatrix(vals [][]float64) pairCost {
	n := len(vals)
	pc := make(pairCost, n)
	for i := range pc {
		pc[i] = make([]float64, n)
		for j := range pc[i] {
			pc[i][j] = vals[i][j]
		}
	}
	return pc
}

func TestPairCostValidate(t *testing.T) {
	ok := symMatrix([][]float64{{0, 1}, {1, 0}})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []pairCost{
		{},
		{{0, 1}},                           // ragged
		{{0, 1}, {2, 0}},                   // asymmetric
		{{0, math.NaN()}, {math.NaN(), 0}}, // non-finite
	}
	for i, pc := range bad {
		if err := pc.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestOptimalPairsHandExample(t *testing.T) {
	// 4 threads; best pairing is (0,3) + (1,2) = 10 + 8 = 18.
	pc := symMatrix([][]float64{
		{0, 5, 6, 10},
		{5, 0, 8, 3},
		{6, 8, 0, 4},
		{10, 3, 4, 0},
	})
	p, err := optimalPairs(pc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 18 {
		t.Errorf("value %v, want 18", p.Value)
	}
	if len(p.Pairs) != 2 {
		t.Errorf("pairs %v", p.Pairs)
	}
}

func TestOptimalPairsRejects(t *testing.T) {
	odd := symMatrix([][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}})
	if _, err := optimalPairs(odd); err == nil {
		t.Error("odd thread count accepted")
	}
	big := make(pairCost, maxPairThreads+2)
	for i := range big {
		big[i] = make([]float64, maxPairThreads+2)
	}
	if _, err := optimalPairs(big); err == nil {
		t.Error("oversized instance accepted")
	}
}

func TestOptimalDominatesGreedyAndRoundRobin(t *testing.T) {
	base := rng.New(91)
	for trial := 0; trial < 20; trial++ {
		r := base.Split(uint64(trial))
		n := 2 * (2 + r.Intn(4)) // 4..10 threads
		pc := make(pairCost, n)
		for i := range pc {
			pc[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := r.Uniform(0, 10)
				pc[i][j], pc[j][i] = v, v
			}
		}
		opt, err := optimalPairs(pc)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := greedyPairs(pc)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := roundRobinPairs(pc)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Value > opt.Value+1e-9 || rr.Value > opt.Value+1e-9 {
			t.Errorf("trial %d: heuristic beat optimal (opt %v, greedy %v, rr %v)",
				trial, opt.Value, gr.Value, rr.Value)
		}
		// Each pairing must be a perfect matching.
		for _, p := range []pairing{opt, gr, rr} {
			seen := make([]bool, n)
			for _, pair := range p.Pairs {
				if seen[pair[0]] || seen[pair[1]] || pair[0] == pair[1] {
					t.Fatalf("invalid matching %v", p.Pairs)
				}
				seen[pair[0]], seen[pair[1]] = true, true
			}
		}
	}
}

func TestPairingServersMap(t *testing.T) {
	p := pairing{Pairs: [][2]int{{0, 3}, {1, 2}}}
	servers := p.Servers(4)
	if servers[0] != 0 || servers[3] != 0 || servers[1] != 1 || servers[2] != 1 {
		t.Errorf("servers %v", servers)
	}
}

// The paper's §II argument made concrete: optimal co-scheduling (shared
// caches, measured pairwise) versus AA (partitioned caches, solo
// profiles). Co-scheduling needs O(n²) co-run measurements to build its
// cost matrix; AA needs O(n·W) solo runs — and with partitioning it
// should match or beat even the optimal pairing, because isolation
// dominates interference for antagonistic mixes.
func TestAAPartitioningBeatsOptimalCoScheduling(t *testing.T) {
	cfg := Config{Sets: 32, Ways: 8, LineSize: 64}
	r := rng.New(92)
	gens := []TraceGen{
		WorkingSet{Lines: 100, LineSize: 64, Base: 0},
		Stream{LineSize: 64, Base: 1 << 30},
		WorkingSet{Lines: 150, LineSize: 64, Base: 2 << 30},
		Stream{LineSize: 64, Base: 3 << 30},
	}
	workloads := GenerateWorkloads(gens, 20000, DefaultModel, r)
	n := len(gens)
	sockets := n / 2

	// Build the pairwise co-run matrix (the O(n²) measurement cost).
	pc := make(pairCost, n)
	for i := range pc {
		pc[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pair := []Workload{workloads[i], workloads[j]}
			res, err := SharedCoRun(cfg, 1, pair, []int{0, 0})
			if err != nil {
				t.Fatal(err)
			}
			pc[i][j], pc[j][i] = res.Total, res.Total
		}
	}
	opt, err := optimalPairs(pc)
	if err != nil {
		t.Fatal(err)
	}

	// AA pipeline: solo profiles, joint solve, DP refinement, co-run.
	in, profiles, err := BuildInstance(cfg, sockets, workloads)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Assign2(in)
	ways := OptimizeWays(cfg, sockets, workloads, profiles, a)
	aaRes, err := CoRunWays(cfg, sockets, workloads, a, ways)
	if err != nil {
		t.Fatal(err)
	}

	if aaRes.Total < opt.Value*0.95 {
		t.Errorf("AA partitioning (%v) materially below optimal co-scheduling (%v)",
			aaRes.Total, opt.Value)
	}
}
