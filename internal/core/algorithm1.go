package core

// Assign1 is the paper's Algorithm 1: the greedy on the linearized
// problem, achieving total utility at least α = 2(√2−1) ≈ 0.828 times
// optimal (Theorem V.16).
//
// Each iteration considers the unassigned threads. If some thread still
// fits its super-optimal allocation ĉ_i on some server (a "full"
// candidate), the one with the greatest linearized utility g_i(ĉ_i) is
// assigned there and allocated exactly ĉ_i. Otherwise every remaining
// thread must settle for a server's leftovers; the (thread, server) pair
// extracting the greatest utility g_i(C_j) is chosen and the thread takes
// everything the server has left.
//
// The implementation runs in O((n+m) log(n+m)) rather than the paper's
// textbook O(mn²) scan: a max-heap over server residuals replaces the
// per-pass server sweep, and two priority queues over threads — full
// candidates by g(ĉ), the rest by ramp slope — replace the per-pass thread
// sweep. The max residual only shrinks, so each thread crosses from "fits"
// to "doesn't fit" at most once and the queues migrate lazily.
// check.Assign1LinearizedRef retains the quadratic implementation; the
// two are byte-identical on any linearization with ĉ_i ∈ [0, C] (which
// Linearize guarantees), a property the differential tests assert across
// the figure corpus.
func Assign1(in *Instance) Assignment {
	so := SuperOptimal(in)
	gs := Linearize(in, so)
	return Assign1Linearized(in, gs)
}

// Assign1Linearized runs Algorithm 1 given precomputed linearized
// utilities, letting callers share one super-optimal computation across
// several algorithms (or drive adversarial linearizations in tests).
// Requires ĉ_i ≥ 0, as Linearize produces: a negative ĉ would grow a
// server's residual and break the shrinking-max invariant the fast path
// (and the algorithm's own analysis) relies on.
func Assign1Linearized(in *Instance, gs []Linearized) Assignment {
	w := GetWorkspace()
	defer PutWorkspace(w)
	var out Assignment
	w.Assign1Linearized(in, gs, &out)
	return out
}
