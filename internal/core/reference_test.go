package core

// Literal, unoptimized translations of the paper's Algorithm 1 and 2
// pseudocode, kept as fidelity oracles. The production Assign1 (which
// only examines the fullest server, an O(m)-per-iteration
// simplification justified in its comments) must make exactly the same
// choices under the same tie-breaking, and the production Assign2
// (which skips the threads the super-optimal price zeroes out) must
// give the same servers and allocation bits.

import (
	"sort"
	"testing"

	"aa/internal/rng"
)

// assign1Reference scans the full (thread, server) candidate sets U each
// iteration, exactly as written in the paper.
func assign1Reference(in *Instance, gs []Linearized) Assignment {
	n, m := in.N(), in.M
	out := NewAssignment(n)
	residual := make([]float64, m)
	for j := range residual {
		residual[j] = in.C
	}
	assigned := make([]bool, n)

	for remaining := n; remaining > 0; remaining-- {
		// U = {(i, j) : thread i unassigned, C_j >= ĉ_i}. Line 6 picks
		// the U-thread with greatest g_i(ĉ_i), first index on ties, and
		// places it on the fullest feasible server — the production
		// tie-breaks.
		bestI := -1
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			feasible := false
			for j := 0; j < m; j++ {
				if residual[j] >= gs[i].CHat {
					feasible = true
					break
				}
			}
			if !feasible {
				continue
			}
			if bestI == -1 || gs[i].UHat > gs[bestI].UHat {
				bestI = i
			}
		}
		var pick, server int
		var amount float64
		if bestI >= 0 {
			pick = bestI
			server = -1
			for j := 0; j < m; j++ {
				if residual[j] >= gs[pick].CHat &&
					(server < 0 || residual[j] > residual[server]) {
					server = j
				}
			}
			amount = gs[pick].CHat
		} else {
			// Line 9: the (thread, server) pair with greatest g_i(C_j).
			bestI, bestJ, bestVal := -1, -1, -1.0
			for i := 0; i < n; i++ {
				if assigned[i] {
					continue
				}
				for j := 0; j < m; j++ {
					if v := gs[i].Value(residual[j]); v > bestVal {
						bestI, bestJ, bestVal = i, j, v
					}
				}
			}
			pick, server = bestI, bestJ
			amount = residual[server]
		}
		assigned[pick] = true
		out.Server[pick] = server
		out.Alloc[pick] = amount
		residual[server] -= amount
		if residual[server] < 0 {
			residual[server] = 0
		}
	}
	return out
}

// The production Assign1 must achieve exactly the reference's total
// utility on random instances (identical choices up to ties between
// equal-utility options, which cannot change the total).
func TestAssign1MatchesLiteralPseudocode(t *testing.T) {
	base := rng.New(211)
	for trial := 0; trial < 25; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 2+r.Intn(18), 1+r.Intn(5), 100)
		so := SuperOptimal(in)
		gs := Linearize(in, so)
		prod := Assign1Linearized(in, gs).Utility(in)
		ref := assign1Reference(in, gs).Utility(in)
		diff := prod - ref
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+ref) {
			t.Errorf("trial %d: production %v != reference %v", trial, prod, ref)
		}
	}
}

// assign2Reference is the paper's Algorithm 2 as written, over servers
// of capacities caps: every thread stably sorted by g(ĉ), the tail
// beyond the first m stably re-sorted by ramp slope, then each thread
// in turn served min(ĉ, residual) from the server heap's top.
func assign2Reference(gs []Linearized, caps []float64) Assignment {
	return assign2TailBy(gs, caps, Linearized.Slope)
}

// assign2TailBy is assign2Reference with line 2's key swapped for the
// tail-order ablation: the tail is stably re-sorted by key,
// nonincreasing, or left in g(ĉ) order when key is nil.
func assign2TailBy(gs []Linearized, caps []float64, key func(Linearized) float64) Assignment {
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return gs[order[a]].UHat > gs[order[b]].UHat })
	if key != nil && len(order) > len(caps) {
		tail := order[len(caps):]
		sort.SliceStable(tail, func(a, b int) bool { return key(gs[tail[a]]) > key(gs[tail[b]]) })
	}
	out := NewAssignment(len(gs))
	var h serverHeap
	h.reset(caps)
	for _, i := range order {
		srv := h.peek()
		amount := gs[i].CHat
		if amount > srv.residual {
			amount = srv.residual
		}
		out.Server[i], out.Alloc[i] = srv.id, amount
		h.updateTop(srv.residual - amount)
	}
	return out
}
