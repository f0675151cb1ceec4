package core

import (
	"context"

	"aa/internal/telemetry"
)

// AssignGreedyMarginal is a natural stronger baseline not in the paper:
// threads are ordered by standalone utility f_i(min(ĉ_i, C)) descending,
// and each is placed on the server where it adds the most utility,
// where "adds" means the increase of that server's optimally re-allocated
// total. It is what a careful practitioner might build without the
// paper's linearization insight; the experiments use it to position
// Algorithm 2 against more than the four naive heuristics.
//
// Runtime O(n·m·A) where A is one concave allocation — substantially
// slower than Algorithm 2 and with no approximation guarantee.
func AssignGreedyMarginal(in *Instance) Assignment {
	n, m := in.N(), in.M
	so := SuperOptimal(in)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for a := 1; a < n; a++ { // insertion sort by standalone utility desc
		for b := a; b > 0 && so.Value[order[b]] > so.Value[order[b-1]]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}

	groups := make([][]int, m)
	totals := make([]float64, m)
	for _, i := range order {
		bestJ, bestDelta, bestTotal := 0, -1.0, 0.0
		for j := 0; j < m; j++ {
			cand := append(append([]int(nil), groups[j]...), i)
			total := groupTotal(in, cand)
			if delta := total - totals[j]; delta > bestDelta {
				bestJ, bestDelta, bestTotal = j, delta, total
			}
		}
		groups[bestJ] = append(groups[bestJ], i)
		totals[bestJ] = bestTotal
	}
	return splitAssignment(in, groups, SplitConcave, nil)
}

// groupTotal is the optimal utility of a thread group sharing one server.
func groupTotal(in *Instance, group []int) float64 {
	return Split(in.Threads, [][]int{group}, []float64{in.C}, SplitConcave, nil, nil)
}

// PolishAllocations keeps an assignment's thread→server map but
// re-solves every server's allocation optimally against the original
// concave utilities. Algorithm 2 hands out allocations shaped by the
// linearized surrogates; polishing reclaims whatever the surrogate left
// behind (including server residuals the linearized greedy never
// assigns). Utility never decreases, and the α guarantee is preserved
// because the input assignment stays feasible. Applied to a heuristic's
// placement, it isolates how much of AA's advantage comes from joint
// assignment versus allocation alone (the ext-ablation study).
func PolishAllocations(in *Instance, a Assignment) Assignment {
	return splitAssignment(in, Groups(a.Server, in.M), SplitConcave, nil)
}

// Improve post-optimizes an assignment by local search with two move
// types: single-thread relocation, and — once no relocation improves —
// pairwise swaps of threads between servers (re-allocating the affected
// servers optimally in both cases). Swaps matter on tight instances
// where every server is full, so no thread can relocate yet exchanging
// two threads still helps (the PARTITION-style instances of the
// NP-hardness proof). Utility never decreases; the result is feasible
// whenever the input is; maxMoves bounds the total move count (0 means
// n·m).
//
// Returns the improved assignment and the number of moves applied. The
// search checks ctx once per thread visit and once per swap pass and
// returns ctx.Err() once it is done, so a deadline bounds the wall time
// of a search that would otherwise run to its local optimum.
func Improve(ctx context.Context, in *Instance, a Assignment, maxMoves int) (Assignment, int, error) {
	start := stageStart()
	n, m := in.N(), in.M
	if maxMoves <= 0 {
		maxMoves = n * m
	}
	groups := Groups(a.Server, m)
	totals := make([]float64, m)
	for j := range groups {
		totals[j] = groupTotal(in, groups[j])
	}

	moves := 0
	const eps = 1e-9
	for moves < maxMoves {
		improved := false
		for i := 0; i < n && moves < maxMoves; i++ {
			if err := ctx.Err(); err != nil {
				return Assignment{}, moves, err
			}
			from := serverOf(groups, i)
			without := removeFrom(groups[from], i)
			fromTotal := groupTotal(in, without)
			bestJ, bestGain := -1, eps
			var bestToTotal float64
			for j := 0; j < m; j++ {
				if j == from {
					continue
				}
				cand := append(append([]int(nil), groups[j]...), i)
				toTotal := groupTotal(in, cand)
				gain := (fromTotal + toTotal) - (totals[from] + totals[j])
				if gain > bestGain {
					bestJ, bestGain, bestToTotal = j, gain, toTotal
				}
			}
			if bestJ >= 0 {
				groups[from] = without
				groups[bestJ] = append(groups[bestJ], i)
				totals[from] = fromTotal
				totals[bestJ] = bestToTotal
				moves++
				improved = true
			}
		}
		if !improved && moves < maxMoves {
			if err := ctx.Err(); err != nil {
				return Assignment{}, moves, err
			}
			improved = swapPass(in, groups, totals, &moves, maxMoves, eps)
		}
		if !improved {
			break
		}
	}

	out := splitAssignment(in, groups, SplitConcave, nil)
	if !start.IsZero() {
		metricLocalSearchMoves.Add(uint64(moves))
		stageEnd(start, metricLocalSearchSeconds, "core.localsearch", telemetry.SpanContext{}, n)
	}
	return out, moves, nil
}

// swapPass applies the first improving pairwise swap it finds, updating
// groups/totals in place. Returns whether a swap was applied.
func swapPass(in *Instance, groups [][]int, totals []float64, moves *int, maxMoves int, eps float64) bool {
	m := len(groups)
	for ja := 0; ja < m; ja++ {
		for jb := ja + 1; jb < m; jb++ {
			for _, i := range groups[ja] {
				for _, k := range groups[jb] {
					aSwap := append(removeFrom(groups[ja], i), k)
					bSwap := append(removeFrom(groups[jb], k), i)
					aTotal := groupTotal(in, aSwap)
					bTotal := groupTotal(in, bSwap)
					gain := (aTotal + bTotal) - (totals[ja] + totals[jb])
					if gain > eps {
						groups[ja] = aSwap
						groups[jb] = bSwap
						totals[ja], totals[jb] = aTotal, bTotal
						*moves++
						return true
					}
					if *moves >= maxMoves {
						return false
					}
				}
			}
		}
	}
	return false
}

func serverOf(groups [][]int, thread int) int {
	for j, group := range groups {
		for _, i := range group {
			if i == thread {
				return j
			}
		}
	}
	return -1
}

func removeFrom(group []int, thread int) []int {
	out := make([]int, 0, len(group))
	for _, i := range group {
		if i != thread {
			out = append(out, i)
		}
	}
	return out
}
