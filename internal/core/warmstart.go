package core

import (
	"slices"
	"sort"
)

// WarmSeed carries the reusable parts of a previous Algorithm 2 solve of
// a nearby instance, remapped onto the threads of the new instance:
// Lambda is the cached solve's water-filling price, and Server/Alloc hold
// the cached placement for every thread the two instances share, with
// Server[i] = -1 marking threads the cached solve does not cover (the
// added or changed ones the repair pass must place from scratch).
// CHat, when non-nil, holds the cached solve's super-optimal allocation
// ĉ for every shared thread and NaN for the others: the warm λ-search's
// first probe, at Lambda, takes those amounts instead of evaluating the
// shared threads.
type WarmSeed struct {
	Lambda float64
	Server []int
	Alloc  []float64
	CHat   []float64
}

// SuperOptimalWarm is SuperOptimal with the λ-search warm-started from a
// previous solve's price (alloc.ConcaveValuesWith): its bracket starts
// at that price and stops at a budget-gap tolerance, so a few probes do
// when the instance changed by only a few threads. hintAlloc, when
// non-nil, holds the previous solve's ĉ_i for the threads it covered
// (NaN elsewhere), which the first probe takes instead of evaluating
// them. The returned bound is a valid F̂ for ratio checks — the
// warm allocation is feasible for the pooled relaxation, so its total
// can only undershoot the exact relaxation optimum, making α-checks
// against it conservative. The returned SuperOpt aliases workspace
// buffers, like SuperOptimal.
func (w *Workspace) SuperOptimalWarm(in *Instance, lambdaHint float64, hintAlloc []float64) SuperOpt {
	return w.superOptimal(in.Threads, in.C, float64(in.M)*in.C, lambdaHint, hintAlloc)
}

// Assign2Warm repairs a cached Algorithm 2 assignment for an instance
// that differs from the cached one by a few threads: it recomputes the
// linearization from a warm-started super-optimal solve, keeps every
// seeded placement verbatim (feasible by construction — the kept loads
// are a subset of an assignment that already respected the same server
// capacities), and serves only the uncovered threads by Algorithm 2's
// rule, nonincreasing g(ĉ) onto the most-residual server.
//
// The repaired assignment keeps Algorithm 2's feasibility invariants but
// NOT its worst-case α guarantee — the caller (the engine's cache
// middleware) must verify check.Feasible and the ratio bound against the
// returned F̂ and fall back to a cold solve when either trips.
func (w *Workspace) Assign2Warm(in *Instance, seed WarmSeed, out *Assignment) SuperOpt {
	so := w.SuperOptimalWarm(in, seed.Lambda, seed.CHat)
	gs := w.Linearize(in, so)

	sp := stageAssign2Warm.StartIn(w.span)
	n, m := in.N(), in.M
	out.Reset(n)

	w.a1servers = slices.Grow(w.a1servers[:0], m)[:m]
	servers := w.a1servers
	for j := range servers {
		servers[j] = serverEntry{id: j, residual: in.C}
	}

	added := slices.Grow(w.order[:0], n)
	for i := 0; i < n; i++ {
		if s := seed.Server[i]; s >= 0 {
			out.Server[i] = s
			out.Alloc[i] = seed.Alloc[i]
			servers[s].residual -= seed.Alloc[i]
		} else {
			added = append(added, i)
		}
	}
	for j := range servers {
		if servers[j].residual < 0 {
			servers[j].residual = 0 // float guard; kept loads never truly exceed C
		}
	}

	// Serve the uncovered threads in nonincreasing g(ĉ) order (stable, so
	// ties keep ascending thread index) onto the most-residual server,
	// exactly Algorithm 2's placement rule restricted to the changed
	// threads.
	w.byUHat = uhatSorter{order: added, gs: gs}
	sort.Stable(&w.byUHat)
	heapifyServers(servers)
	for _, i := range added {
		top := servers[0]
		amount := gs[i].CHat
		if amount > top.residual {
			amount = top.residual
		}
		out.Server[i] = top.id
		out.Alloc[i] = amount
		siftTopServer(servers, top.residual-amount)
	}
	w.order = added[:0]
	sp.Int("n", len(added))
	sp.End()
	return so
}

// heapifyServers builds the (residual desc, id asc) server heap in place
// — the warm repair starts from uneven residuals, unlike the cold
// algorithms whose all-equal initial residuals are trivially a heap.
func heapifyServers(s []serverEntry) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDownServer(s, i)
	}
}

// siftDownServer restores the server-heap order below position i.
func siftDownServer(s []serverEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && serverBefore(s[l], s[best]) {
			best = l
		}
		if r < len(s) && serverBefore(s[r], s[best]) {
			best = r
		}
		if best == i {
			return
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
}
