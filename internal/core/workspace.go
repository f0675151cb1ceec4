package core

import (
	"slices"
	"sync"

	"aa/internal/alloc"
	"aa/internal/telemetry"
	"aa/internal/utility"
)

// Workspace owns every scratch buffer one solve needs — capped utility
// wrappers, the super-optimal allocation and linearization, sort orders and
// the heaps of both assignment algorithms — so a goroutine that re-solves
// instances back to back allocates nothing once the buffers have grown to
// the workload's size. A Workspace is not safe for concurrent use; give
// each worker its own (solverpool does), or borrow one from the package
// pool with GetWorkspace/PutWorkspace.
//
// Slices returned by the Workspace methods (SuperOpt.Alloc/Value, the
// Linearized slice) alias the workspace and are valid only until the next
// method call on the same Workspace; callers that retain results must copy
// them or use the allocating package-level functions.
type Workspace struct {
	capped  []utility.Capped
	fs      []utility.Func // fs[i] = &capped[i]: no per-element boxing
	dst     []float64      // SplitGroup's allocation
	soAlloc []float64
	soValue []float64
	gs      []Linearized
	allocSc alloc.Scratch // λ-search working set, owned per workspace

	// Algorithm 2 scratch.
	order  []int
	caps   []float64 // per-server capacities of a homogeneous solve (uniformCaps)
	h2     serverHeap
	byUHat uhatSorter
	byTail tailSorter

	// Algorithm 1 fast-path scratch.
	a1servers []serverEntry
	full      []threadItem
	partial   []threadItem

	// span is the request span the solver stages parent their trace
	// spans to (SetSpanContext); zero means "use the process default".
	span telemetry.SpanContext
}

// SetSpanContext plants the enclosing request's span context so the
// solver-stage spans of subsequent calls (SuperOptimal, Assign*,
// assign2) become its children. The engine sets it per solve; the zero
// SpanContext restores the default parenting.
func (w *Workspace) SetSpanContext(sc telemetry.SpanContext) { w.span = sc }

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace borrows a workspace from the package-wide pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the pool. The utility-function
// references from the last solve are dropped so the pool never keeps
// caller objects alive.
func PutWorkspace(w *Workspace) {
	for i := range w.capped {
		w.capped[i].F = nil
	}
	w.span = telemetry.SpanContext{} // don't leak a request's span to the next borrower
	workspacePool.Put(w)
}

// capFuncs fills the workspace's capped wrappers, thread i capped at
// min(its own cap, c), and returns them as []utility.Func of pointers
// into the workspace — the pointer indirection keeps the interface
// conversion allocation-free.
func (w *Workspace) capFuncs(threads []utility.Func, c float64) []utility.Func {
	n := len(threads)
	w.capped = slices.Grow(w.capped[:0], n)[:n]
	w.fs = slices.Grow(w.fs[:0], n)[:n]
	for i, f := range threads {
		w.capped[i] = utility.Capped{F: f, C: min(f.Cap(), c)}
		w.fs[i] = &w.capped[i]
	}
	return w.fs
}

// superOptimalWith is the shared super-optimal implementation: the
// allocating package-level SuperOptimal and the buffer-reusing Workspace
// methods (cold, warm and AssignCapacities) funnel here, so their
// numerics are identical by construction. budget is the pooled capacity
// (m·C for a homogeneous instance). lambdaHint > 0 warm-starts the
// λ-search, with hintAlloc the amounts it may take at the hint (see
// alloc.ConcaveValuesWith), and selects the warm stage.
// One alloc pass yields both the per-thread values and F̂, their
// index-order sum.
func superOptimalWith(fs []utility.Func, sc *alloc.Scratch, allocDst, valueDst []float64, budget, lambdaHint float64, hintAlloc []float64, parent telemetry.SpanContext) SuperOpt {
	warm := lambdaHint > 0
	stage := stageSuperOpt
	if warm {
		stage = stageSuperOptWarm
	}
	sp := stage.StartIn(parent)
	res, vals := alloc.ConcaveValuesWith(sc, allocDst, valueDst, fs, budget, lambdaHint, hintAlloc)
	if telemetry.Enabled() {
		if !warm {
			metricSuperOptCalls.Inc()
		}
		metricBisectIters.Add(uint64(res.Iterations))
	}
	sp.Int("n", len(fs))
	sp.End()
	return SuperOpt{Alloc: res.Alloc, Value: vals, Total: res.Total, Lambda: res.Lambda}
}

// SuperOptimal is the workspace variant of the package-level SuperOptimal;
// the returned SuperOpt aliases workspace buffers.
func (w *Workspace) SuperOptimal(in *Instance) SuperOpt {
	return w.superOptimal(in.Threads, in.C, float64(in.M)*in.C, 0, nil)
}

// superOptimal runs superOptimalWith on the workspace's buffers and keeps
// them for the next call.
func (w *Workspace) superOptimal(threads []utility.Func, c, budget, lambdaHint float64, hintAlloc []float64) SuperOpt {
	so := superOptimalWith(w.capFuncs(threads, c), &w.allocSc, w.soAlloc, w.soValue, budget, lambdaHint, hintAlloc, w.span)
	w.soAlloc, w.soValue = so.Alloc, so.Value
	return so
}

// Linearize is the workspace variant of the package-level Linearize; the
// returned slice aliases the workspace.
func (w *Workspace) Linearize(in *Instance, so SuperOpt) []Linearized {
	return w.linearize(so, in.C)
}

func (w *Workspace) linearize(so SuperOpt, c float64) []Linearized {
	n := len(so.Alloc)
	w.gs = slices.Grow(w.gs[:0], n)[:n]
	for i := range w.gs {
		w.gs[i] = Linearized{UHat: so.Value[i], CHat: so.Alloc[i], C: c}
	}
	if telemetry.Enabled() {
		metricLinearizeCalls.Inc()
	}
	return w.gs
}

// AssignCapacities runs super-optimal → linearize → Algorithm 2 for
// servers of capacities caps, the paper's §VIII heterogeneous case: the
// relaxation shares budget among the threads capped at c, and Algorithm
// 2 serves them from server residuals that start at caps. A homogeneous
// instance is caps = (C, …, C), c = C, budget = m·C. It writes the
// assignment into out and returns the relaxation it linearized, which
// aliases the workspace.
func (w *Workspace) AssignCapacities(threads []utility.Func, caps []float64, c, budget float64, out *Assignment) SuperOpt {
	so := w.superOptimal(threads, c, budget, 0, nil)
	w.assign2(w.linearize(so, c), caps, out)
	return so
}

// threadItem is one entry of the fast path's thread priority queues: key
// is g(ĉ) for the full-candidate heap and the ramp slope g(ĉ)/ĉ for the
// partial heap; ties break toward the lower thread index, matching the
// first-maximum semantics of the reference scan.
type threadItem struct {
	key float64
	idx int
}

// itemBefore is the strict total order of the thread heaps.
func itemBefore(a, b threadItem) bool {
	return a.key > b.key || (a.key == b.key && a.idx < b.idx)
}

func heapifyItems(h []threadItem) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownItem(h, i)
	}
}

func siftDownItem(h []threadItem, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && itemBefore(h[l], h[best]) {
			best = l
		}
		if r < len(h) && itemBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func pushItem(h []threadItem, it threadItem) []threadItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popItem(h []threadItem) (threadItem, []threadItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDownItem(h, 0)
	return top, h
}

// serverBefore is the strict total order of Algorithm 1's server heap:
// most residual first, lower id on ties — exactly the server the reference
// implementation's first-maximum scan selects.
func serverBefore(a, b serverEntry) bool {
	return a.residual > b.residual || (a.residual == b.residual && a.id < b.id)
}

// siftTopServer lowers the top server's residual and restores the heap.
func siftTopServer(s []serverEntry, newResidual float64) {
	s[0].residual = newResidual
	siftDownServer(s, 0)
}

// Assign1Linearized is the workspace variant of the package-level fast
// Assign1Linearized, writing the assignment into out (resized as needed).
func (w *Workspace) Assign1Linearized(in *Instance, gs []Linearized, out *Assignment) {
	sp := stageAssign1.StartIn(w.span)
	n, m := in.N(), in.M
	out.Reset(n)

	w.a1servers = slices.Grow(w.a1servers[:0], m)[:m]
	servers := w.a1servers
	for j := range servers {
		servers[j] = serverEntry{id: j, residual: in.C}
	}
	// All residuals equal and ids ascending is already a valid heap under
	// (residual desc, id asc).

	// Initial split against the starting residual C: threads whose ĉ fits
	// a fresh server are full candidates keyed by g(ĉ); the rest can only
	// ever take leftovers and are keyed by slope. A thread moves from full
	// to partial at most once, when the shrinking max residual drops below
	// its ĉ — the max residual never grows (every pass removes amount ≥ 0
	// from the fullest server), so the move is permanent and the lazy
	// migration below stays O(n log n) total.
	full, partial := w.full[:0], w.partial[:0]
	for i := range gs {
		if gs[i].CHat <= in.C {
			full = append(full, threadItem{key: gs[i].UHat, idx: i})
		} else {
			partial = append(partial, threadItem{key: gs[i].Slope(), idx: i})
		}
	}
	heapifyItems(full)
	heapifyItems(partial)

	for remaining := n; remaining > 0; remaining-- {
		top := servers[0]
		maxResidual := top.residual

		// Migrate full-heap tops that no longer fit the fullest server.
		// Entries below the top may also have outgrown maxResidual; they
		// migrate when they surface, and until then they cannot win a
		// full pick — the top bounds their key from above, so the chosen
		// full candidate is always the true maximum over the threads that
		// actually still fit.
		for len(full) > 0 {
			if gs[full[0].idx].CHat <= maxResidual {
				break
			}
			var it threadItem
			it, full = popItem(full)
			partial = pushItem(partial, threadItem{key: gs[it.idx].Slope(), idx: it.idx})
		}

		var pick int
		var amount float64
		if len(full) > 0 {
			var it threadItem
			it, full = popItem(full)
			pick, amount = it.idx, gs[it.idx].CHat
		} else {
			// No unassigned thread fits anywhere (the full heap drains
			// exactly when every remaining ĉ exceeds the max residual), so
			// the partial heap holds all of them; the best slope takes
			// everything the fullest server has left.
			var it threadItem
			it, partial = popItem(partial)
			pick, amount = it.idx, maxResidual
		}
		out.Server[pick] = top.id
		out.Alloc[pick] = amount
		newResidual := maxResidual - amount
		if newResidual < 0 {
			newResidual = 0 // float guard
		}
		siftTopServer(servers, newResidual)
	}
	w.full, w.partial = full[:0], partial[:0]
	sp.Int("n", n)
	sp.End()
}

// Assign2Linearized is the workspace variant of the package-level
// Assign2Linearized, writing the assignment into out.
func (w *Workspace) Assign2Linearized(in *Instance, gs []Linearized, out *Assignment) {
	w.assign2(gs, w.uniformCaps(in.M, in.C), out)
}

// uniformCaps returns m copies of c, the server capacities of a
// homogeneous instance, in workspace scratch.
func (w *Workspace) uniformCaps(m int, c float64) []float64 {
	w.caps = slices.Grow(w.caps[:0], m)[:m]
	for j := range w.caps {
		w.caps[j] = c
	}
	return w.caps
}

// uhatSorter orders thread indices by nonincreasing g(ĉ) (Algorithm 2,
// line 1). A concrete sort.Interface kept in the workspace avoids the
// closure and header allocations of sort.SliceStable; stability makes the
// result identical either way.
type uhatSorter struct {
	order []int
	gs    []Linearized
}

func (s *uhatSorter) Len() int { return len(s.order) }
func (s *uhatSorter) Less(a, b int) bool {
	return s.gs[s.order[a]].UHat > s.gs[s.order[b]].UHat
}
func (s *uhatSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// tailSorter orders the tail by nonincreasing slope (Algorithm 2, line 2).
type tailSorter struct {
	order []int
	gs    []Linearized
}

func (s *tailSorter) Len() int { return len(s.order) }
func (s *tailSorter) Less(a, b int) bool {
	return s.gs[s.order[a]].Slope() > s.gs[s.order[b]].Slope()
}
func (s *tailSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
