package core

import (
	"context"
	"slices"

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

	w := GetWorkspace()
	defer PutWorkspace(w)
	groups := make([][]int, m)
	totals := make([]float64, m)
	var cand []int
	for _, i := range order {
		bestJ, bestDelta, bestTotal := 0, -1.0, 0.0
		for j := 0; j < m; j++ {
			cand = append(append(cand[:0], groups[j]...), i)
			total := w.SplitGroup(in.Threads, cand, in.C, in.C, SplitConcave, nil).Total
			if delta := total - totals[j]; delta > bestDelta {
				bestJ, bestDelta, bestTotal = j, delta, total
			}
		}
		groups[bestJ] = append(groups[bestJ], i)
		totals[bestJ] = bestTotal
	}
	return splitAssignment(in, groups, SplitConcave, nil)
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
	sp := stageLocalSearch.StartIn(telemetry.SpanContext{})
	n, m := in.N(), in.M
	if maxMoves <= 0 {
		maxMoves = n * m
	}
	w := GetWorkspace()
	defer PutWorkspace(w)
	price := func(group []int) float64 {
		return w.SplitGroup(in.Threads, group, in.C, in.C, SplitConcave, nil).Total
	}
	groups := Groups(a.Server, m)
	server := slices.Clone(a.Server)
	totals := make([]float64, m)
	for j := range groups {
		totals[j] = price(groups[j])
	}

	// cand is the scratch every priced group is built in, in the order
	// the move would leave it.
	var cand []int
	moves := 0
	const eps = 1e-9
	for moves < maxMoves {
		improved := false
		for i := 0; i < n && moves < maxMoves; i++ {
			if err := ctx.Err(); err != nil {
				return Assignment{}, moves, err
			}
			from := server[i]
			at := slices.Index(groups[from], i)
			cand = append(append(cand[:0], groups[from][:at]...), groups[from][at+1:]...)
			fromTotal := price(cand)
			bestJ, bestGain := -1, eps
			var bestToTotal float64
			for j := 0; j < m; j++ {
				if j == from {
					continue
				}
				cand = append(append(cand[:0], groups[j]...), i)
				toTotal := price(cand)
				gain := (fromTotal + toTotal) - (totals[from] + totals[j])
				if gain > bestGain {
					bestJ, bestGain, bestToTotal = j, gain, toTotal
				}
			}
			if bestJ >= 0 {
				groups[from] = slices.Delete(groups[from], at, at+1)
				groups[bestJ] = append(groups[bestJ], i)
				server[i] = bestJ
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
			improved = swapPass(groups, totals, server, price, &moves, maxMoves, eps)
		}
		if !improved {
			break
		}
	}

	out := splitAssignment(in, groups, SplitConcave, nil)
	sp.Int("n", n)
	sp.End()
	return out, moves, nil
}

// swapPass applies the first improving pairwise swap it finds, updating
// groups/totals/server in place. Returns whether a swap was applied.
func swapPass(groups [][]int, totals []float64, server []int, price func([]int) float64, moves *int, maxMoves int, eps float64) bool {
	m := len(groups)
	var cand []int
	for ja := 0; ja < m; ja++ {
		for jb := ja + 1; jb < m; jb++ {
			for ka, i := range groups[ja] {
				for kb, k := range groups[jb] {
					// Each side without its thread, the other's appended.
					a, b := groups[ja], groups[jb]
					cand = append(append(append(cand[:0], a[:ka]...), a[ka+1:]...), k)
					aTotal := price(cand)
					cand = append(append(append(cand[:0], b[:kb]...), b[kb+1:]...), i)
					bTotal := price(cand)
					gain := (aTotal + bTotal) - (totals[ja] + totals[jb])
					if gain > eps {
						groups[ja] = append(slices.Delete(a, ka, ka+1), k)
						groups[jb] = append(slices.Delete(b, kb, kb+1), i)
						server[i], server[k] = jb, ja
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
