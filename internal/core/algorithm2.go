package core

import (
	"math"
	"slices"
	"sort"

	"aa/internal/telemetry"
)

// Assign2 is the paper's Algorithm 2: the O(n (log mC)²) algorithm with
// the same α = 2(√2−1) approximation ratio as Algorithm 1 (Theorem VI.1).
//
// It sorts threads by linearized utility g_i(ĉ_i) in nonincreasing order,
// re-sorts the tail (positions m+1..n) by ramp slope g_i(ĉ_i)/ĉ_i in
// nonincreasing order, then serves threads in sequence: each takes
// min(ĉ_i, C_j) from the server j with the most remaining resource,
// maintained in a max-heap.
func Assign2(in *Instance) Assignment {
	so := SuperOptimal(in)
	gs := Linearize(in, so)
	return Assign2Linearized(in, gs)
}

// Assign2Linearized runs Algorithm 2 given precomputed linearized
// utilities, letting callers share one super-optimal computation across
// several algorithms.
func Assign2Linearized(in *Instance, gs []Linearized) Assignment {
	w := GetWorkspace()
	defer PutWorkspace(w)
	var out Assignment
	w.Assign2Linearized(in, gs, &out)
	return out
}

// assign2 is Algorithm 2 over servers of capacities caps: the ordering
// step (lines 1–2) then the serving step (lines 3–10). It reuses the
// workspace's order slice, sorters and server heap, so steady-state
// re-solves allocate nothing beyond the caller's out.
//
// Most threads of a large instance are priced out: the super-optimal
// price gives them ĉ = 0. Such a thread takes amount = ĉ, leaves every
// residual as it was, and so lands on whichever server tops the heap
// when its turn comes. When pricedIn finds that the line-2 re-sort puts
// every priced-out thread last, they all take their turn after the
// priced-in ones, on the one server the heap ends on: only the k
// priced-in threads are sorted and served, an O(n + k log k) ordering
// with the same servers and allocation bits as sorting all n. Otherwise
// the full order2 + serve2 runs, after the one extra O(n) pass.
func (w *Workspace) assign2(gs []Linearized, caps []float64, out *Assignment) {
	sp := stageAssign2.StartIn(w.span)
	if k, ok := w.pricedIn(gs, caps); ok {
		priced := w.order[:k]
		w.sort2(priced, gs, len(caps))
		out.resize(len(gs)) // every thread is written below: no Reset pass
		w.serve2(gs, priced, caps, out)
		top := w.h2.peek().id
		for i := range gs {
			if gs[i].CHat == 0 {
				out.Server[i] = top
				out.Alloc[i] = gs[i].CHat // keeps the bits of ĉ = ±0
			}
		}
	} else {
		w.order2(gs, len(caps))
		out.Reset(len(gs))
		w.serve2(gs, w.order, caps, out)
	}
	if telemetry.Enabled() {
		metricAssign2Calls.Inc()
	}
	sp.Int("n", len(gs))
	sp.End()
}

// pricedIn checks, in one O(n) pass and before any sort, that the
// priced-out threads (ĉ = ±0) can skip the ordering and serving steps,
// and leaves the priced-in threads (ĉ > 0) in w.order[:k], in index
// order. That needs:
//   - at least one priced-out thread, and m ≥ 1 servers;
//   - at least m priced-in threads with g(ĉ) strictly above every
//     priced-out g(ĉ), so the head (the first m positions of the g(ĉ)
//     order) holds priced-in threads only;
//   - a ramp slope > 0 on every priced-in thread, so the tail's slope
//     re-sort puts every priced-out thread (slope 0) after them; a
//     slope > 0 also rules out a NaN key and an infinite ĉ;
//   - no NaN g(ĉ) among the priced-out threads and no ĉ < 0 or NaN;
//   - capacities ≥ +0, so a ĉ = ±0 never exceeds a residual and leaves
//     it unchanged, bit for bit.
func (w *Workspace) pricedIn(gs []Linearized, caps []float64) (int, bool) {
	m := len(caps)
	if m == 0 {
		return 0, false
	}
	for _, c := range caps {
		if !(c >= 0) || math.Signbit(c) {
			return 0, false
		}
	}
	w.order = slices.Grow(w.order[:0], len(gs))
	priced := w.order // grown to n: the appends below stay in w.order
	maxOut := math.Inf(-1)
	zeros := 0
	for i := range gs {
		g := &gs[i]
		switch {
		case g.CHat > 0:
			if !(g.Slope() > 0) {
				return 0, false
			}
			priced = append(priced, i)
		case g.CHat == 0 && !math.IsNaN(g.UHat):
			zeros++
			if g.UHat > maxOut {
				maxOut = g.UHat
			}
		default:
			return 0, false
		}
	}
	if zeros == 0 {
		return 0, false
	}
	above := 0
	for _, i := range priced {
		if gs[i].UHat > maxOut {
			if above++; above == m {
				return len(priced), true
			}
		}
	}
	return 0, false
}

// order2 is Algorithm 2's ordering step over all n threads, O(n log n):
// w.order becomes every thread in the order sort2 gives. assign2 takes
// it when pricedIn's conditions fail.
func (w *Workspace) order2(gs []Linearized, m int) {
	n := len(gs)
	w.order = slices.Grow(w.order[:0], n)[:n]
	for i := range w.order {
		w.order[i] = i
	}
	w.sort2(w.order, gs, m)
}

// sort2 orders the thread indices in order by nonincreasing g_i(ĉ_i)
// (line 1), then re-sorts the tail beyond the first m by nonincreasing
// ramp slope (line 2), both stably. The sorters are concrete
// sort.Interface values held in the workspace: sort.Stable over them
// gives the permutation sort.SliceStable would, without its per-call
// allocations.
func (w *Workspace) sort2(order []int, gs []Linearized, m int) {
	w.byUHat = uhatSorter{order: order, gs: gs}
	sort.Stable(&w.byUHat)
	if len(order) > m {
		w.byTail = tailSorter{order: order[m:], gs: gs}
		sort.Stable(&w.byTail)
	}
}

// serve2 is Algorithm 2's serving step (lines 3–10): server j starts
// with residual caps[j], and each thread, in the given order, takes
// min(ĉ_i, residual) from the server with the most resource left. It
// writes only the ordered threads' entries of out.
func (w *Workspace) serve2(gs []Linearized, order []int, caps []float64, out *Assignment) {
	h := &w.h2
	h.reset(caps)
	for _, i := range order {
		srv := h.peek()
		amount := gs[i].CHat
		if amount > srv.residual {
			amount = srv.residual
		}
		out.Server[i] = srv.id
		out.Alloc[i] = amount
		h.updateTop(srv.residual - amount)
	}
}

// serverHeap is a binary max-heap over server residual capacities.
type serverEntry struct {
	id       int
	residual float64
}

type serverHeap struct {
	entries []serverEntry
}

// reset refills the heap with server j at residual caps[j], reusing the
// entry array when it is large enough, and heapifies it. Heapify swaps
// only on a strictly larger child, so equal capacities leave the servers
// in id order.
func (h *serverHeap) reset(caps []float64) {
	h.entries = slices.Grow(h.entries[:0], len(caps))[:len(caps)]
	for j, c := range caps {
		h.entries[j] = serverEntry{id: j, residual: c}
	}
	for i := len(caps)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// peek returns the server with the most remaining resource.
func (h *serverHeap) peek() serverEntry { return h.entries[0] }

// updateTop replaces the top's residual and restores the heap property.
func (h *serverHeap) updateTop(newResidual float64) {
	h.entries[0].residual = newResidual
	h.siftDown(0)
}

// siftDown restores the heap property below position i.
func (h *serverHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.entries[l].residual > h.entries[largest].residual {
			largest = l
		}
		if r < n && h.entries[r].residual > h.entries[largest].residual {
			largest = r
		}
		if largest == i {
			return
		}
		h.entries[i], h.entries[largest] = h.entries[largest], h.entries[i]
		i = largest
	}
}
