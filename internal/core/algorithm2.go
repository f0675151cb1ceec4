package core

import (
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
func (w *Workspace) assign2(gs []Linearized, caps []float64, out *Assignment) {
	sp := stageAssign2.StartIn(w.span)
	w.order2(gs, len(caps))
	w.serve2(gs, w.order, caps, out)
	if telemetry.Enabled() {
		metricAssign2Calls.Inc()
	}
	sp.Int("n", len(gs))
	sp.End()
}

// order2 is Algorithm 2's ordering step: w.order becomes every thread by
// nonincreasing g_i(ĉ_i) (line 1), with the tail beyond the first m
// re-sorted by nonincreasing ramp slope (line 2). The sorters are
// concrete sort.Interface values held in the workspace: sort.Stable over
// them gives the permutation sort.SliceStable would, without its
// per-call allocations.
func (w *Workspace) order2(gs []Linearized, m int) {
	n := len(gs)
	w.order = slices.Grow(w.order[:0], n)[:n]
	order := w.order
	for i := range order {
		order[i] = i
	}
	w.byUHat = uhatSorter{order: order, gs: gs}
	sort.Stable(&w.byUHat)
	if n > m {
		w.byTail = tailSorter{order: order[m:], gs: gs}
		sort.Stable(&w.byTail)
	}
}

// serve2 is Algorithm 2's serving step (lines 3–10): server j starts
// with residual caps[j], and each thread, in the given order, takes
// min(ĉ_i, residual) from the server with the most resource left.
func (w *Workspace) serve2(gs []Linearized, order []int, caps []float64, out *Assignment) {
	out.Reset(len(gs))
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
