package core

import (
	"slices"
	"sort"
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
	return assign2WithTailOrder(in, gs, TailBySlope)
}

// TailOrder selects how Algorithm 2's line 2 orders threads m+1..n; only
// TailBySlope carries the paper's guarantee, the others exist for the
// ablation study (ext-tail in DESIGN.md).
type TailOrder int

// Tail orderings for the ablation.
const (
	// TailBySlope is the paper's rule: nonincreasing g(ĉ)/ĉ.
	TailBySlope TailOrder = iota
	// TailByUHat skips line 2 entirely (tail stays sorted by g(ĉ)).
	TailByUHat
	// TailByCHatDesc orders by super-optimal allocation, biggest first.
	TailByCHatDesc
)

// Assign2TailOrder runs Algorithm 2 with a pluggable line-2 ordering —
// the ablation knob for quantifying how much the paper's slope re-sort
// contributes.
func Assign2TailOrder(in *Instance, tailOrder TailOrder) Assignment {
	so := SuperOptimal(in)
	gs := Linearize(in, so)
	return assign2WithTailOrder(in, gs, tailOrder)
}

func assign2WithTailOrder(in *Instance, gs []Linearized, tailOrder TailOrder) Assignment {
	w := GetWorkspace()
	defer PutWorkspace(w)
	var out Assignment
	w.assign2(in, gs, tailOrder, &out)
	return out
}

// assign2 is the implementation behind Assign2Linearized and the ablation
// entry points, reusing the workspace's order slice, sorters and server
// heap so steady-state re-solves allocate nothing beyond the caller's out.
func (w *Workspace) assign2(in *Instance, gs []Linearized, tailOrder TailOrder, out *Assignment) {
	start := stageStart()
	n, m := in.N(), in.M
	out.Reset(n)

	// Line 1: order all threads by g_i(ĉ_i), nonincreasing. The sorters
	// are concrete sort.Interface values held in the workspace —
	// sort.Stable over them visits the same comparison sequence as the
	// sort.SliceStable closure this replaces (both are stable, so the
	// permutation is identical too) without its per-call allocations.
	w.order = slices.Grow(w.order[:0], n)[:n]
	order := w.order
	for i := range order {
		order[i] = i
	}
	w.byUHat = uhatSorter{order: order, gs: gs}
	sort.Stable(&w.byUHat)
	sortCmps := w.byUHat.cmps
	// Line 2: re-sort the tail (threads m+1..n in that ordering).
	if n > m {
		switch tailOrder {
		case TailBySlope, TailByCHatDesc:
			w.byTail = tailSorter{order: order[m:], gs: gs, byCHat: tailOrder == TailByCHatDesc}
			sort.Stable(&w.byTail)
			sortCmps += w.byTail.cmps
		case TailByUHat:
			// Keep the line-1 ordering.
		}
	}

	// Lines 3–4: max-heap of residual server capacities.
	w.h2.reset(m, in.C)
	h := &w.h2

	// Lines 5–10: serve threads in order from the fullest server.
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
	if !start.IsZero() {
		metricAssign2Calls.Inc()
		metricAssign2SortCmps.Add(sortCmps)
		// n updateTop calls plus every sift-down swap they performed.
		metricAssign2HeapOps.Add(uint64(n) + uint64(h.swaps))
		stageEnd(start, metricAssign2Seconds, "core.assign2", w.span, n)
	}
}

// serverHeap is a binary max-heap over server residual capacities.
type serverEntry struct {
	id       int
	residual float64
}

type serverHeap struct {
	entries []serverEntry
	swaps   int // sift-down swaps, for the heap-operations telemetry
}

// reset refills the heap with m servers at residual c, reusing the entry
// array when it is large enough. All keys equal means any order is a
// valid heap.
func (h *serverHeap) reset(m int, c float64) {
	h.entries = slices.Grow(h.entries[:0], m)[:m]
	for j := range h.entries {
		h.entries[j] = serverEntry{id: j, residual: c}
	}
	h.swaps = 0
}

// peek returns the server with the most remaining resource.
func (h *serverHeap) peek() serverEntry { return h.entries[0] }

// updateTop replaces the top's residual and restores the heap property.
func (h *serverHeap) updateTop(newResidual float64) {
	h.entries[0].residual = newResidual
	n := len(h.entries)
	i := 0
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
		h.swaps++
		i = largest
	}
}
