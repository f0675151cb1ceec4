package core

import (
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
	capped  []cappedFunc
	fs      []utility.Func // fs[i] = &capped[i]: no per-element boxing
	soAlloc []float64
	soValue []float64
	gs      []Linearized
	allocSc alloc.Scratch // λ-bisection working set, owned per workspace

	// Algorithm 2 scratch.
	order  []int
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
		w.capped[i].f = nil
	}
	w.span = telemetry.SpanContext{} // don't leak a request's span to the next borrower
	workspacePool.Put(w)
}

// capFuncs fills the workspace's capped wrappers for the instance and
// returns them as []utility.Func of pointers into the workspace — the
// pointer indirection keeps the interface conversion allocation-free.
func (w *Workspace) capFuncs(in *Instance) []utility.Func {
	n := in.N()
	if cap(w.capped) < n {
		w.capped = make([]cappedFunc, n)
		w.fs = make([]utility.Func, n)
	}
	w.capped = w.capped[:n]
	w.fs = w.fs[:n]
	for i, f := range in.Threads {
		c := f.Cap()
		if c > in.C {
			c = in.C
		}
		w.capped[i] = cappedFunc{f: f, c: c}
		w.fs[i] = &w.capped[i]
	}
	return w.fs
}

// superOptimalWith is the shared super-optimal implementation: both the
// allocating package-level SuperOptimal and the buffer-reusing Workspace
// method funnel here, so their numerics are identical by construction.
func superOptimalWith(in *Instance, fs []utility.Func, sc *alloc.Scratch, allocDst, valueDst []float64, parent telemetry.SpanContext) SuperOpt {
	start := stageStart()
	budget := float64(in.M) * in.C
	res := alloc.ConcaveWith(sc, allocDst, fs, budget)
	n := len(fs)
	if cap(valueDst) >= n {
		valueDst = valueDst[:n]
	} else {
		valueDst = make([]float64, n)
	}
	so := SuperOpt{Alloc: res.Alloc, Value: valueDst, Total: res.Total, Lambda: res.Lambda}
	for i, f := range fs {
		so.Value[i] = f.Value(res.Alloc[i])
	}
	if !start.IsZero() {
		metricSuperOptCalls.Inc()
		metricBisectIters.Add(uint64(res.Iterations))
		stageEnd(start, metricSuperOptSeconds, "core.superopt", parent, in.N())
	}
	return so
}

// SuperOptimal is the workspace variant of the package-level SuperOptimal;
// the returned SuperOpt aliases workspace buffers.
func (w *Workspace) SuperOptimal(in *Instance) SuperOpt {
	so := superOptimalWith(in, w.capFuncs(in), &w.allocSc, w.soAlloc, w.soValue, w.span)
	w.soAlloc, w.soValue = so.Alloc, so.Value
	return so
}

// Linearize is the workspace variant of the package-level Linearize; the
// returned slice aliases the workspace.
func (w *Workspace) Linearize(in *Instance, so SuperOpt) []Linearized {
	n := in.N()
	if cap(w.gs) >= n {
		w.gs = w.gs[:n]
	} else {
		w.gs = make([]Linearized, n)
	}
	for i := range w.gs {
		w.gs[i] = Linearized{UHat: so.Value[i], CHat: so.Alloc[i], C: in.C}
	}
	if telemetry.Enabled() {
		metricLinearizeCalls.Inc()
	}
	return w.gs
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

// siftTopServer lowers the top server's residual and restores the heap,
// returning the number of swaps for the server-ops telemetry.
func siftTopServer(s []serverEntry, newResidual float64) int {
	s[0].residual = newResidual
	swaps := 0
	i := 0
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
			return swaps
		}
		s[i], s[best] = s[best], s[i]
		swaps++
		i = best
	}
}

// Assign1Linearized is the workspace variant of the package-level fast
// Assign1Linearized, writing the assignment into out (resized as needed).
func (w *Workspace) Assign1Linearized(in *Instance, gs []Linearized, out *Assignment) {
	start := stageStart()
	n, m := in.N(), in.M
	out.Reset(n)

	if cap(w.a1servers) >= m {
		w.a1servers = w.a1servers[:m]
	} else {
		w.a1servers = make([]serverEntry, m)
	}
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

	var fitChecks, serverOps uint64
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
			fitChecks++
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
		serverOps += uint64(siftTopServer(servers, newResidual)) + 1
	}
	w.full, w.partial = full[:0], partial[:0]

	if !start.IsZero() {
		metricAssign1Calls.Inc()
		metricAssign1Passes.Add(uint64(n))
		metricAssign1FitChecks.Add(fitChecks)
		metricAssign1ServerOps.Add(serverOps)
		stageEnd(start, metricAssign1Seconds, "core.assign1", w.span, n)
	}
}

// Assign2Linearized is the workspace variant of the package-level
// Assign2Linearized, writing the assignment into out.
func (w *Workspace) Assign2Linearized(in *Instance, gs []Linearized, out *Assignment) {
	w.assign2(in, gs, TailBySlope, out)
}

// uhatSorter orders thread indices by nonincreasing g(ĉ) (Algorithm 2,
// line 1). A concrete sort.Interface kept in the workspace avoids the
// closure and header allocations of sort.SliceStable; stability makes the
// result identical either way.
type uhatSorter struct {
	order []int
	gs    []Linearized
	cmps  uint64
}

func (s *uhatSorter) Len() int { return len(s.order) }
func (s *uhatSorter) Less(a, b int) bool {
	s.cmps++
	return s.gs[s.order[a]].UHat > s.gs[s.order[b]].UHat
}
func (s *uhatSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// tailSorter orders the tail (Algorithm 2, line 2) by the ablation's
// TailOrder: nonincreasing slope (the paper's rule) or nonincreasing ĉ.
type tailSorter struct {
	order  []int
	gs     []Linearized
	byCHat bool
	cmps   uint64
}

func (s *tailSorter) Len() int { return len(s.order) }
func (s *tailSorter) Less(a, b int) bool {
	s.cmps++
	if s.byCHat {
		return s.gs[s.order[a]].CHat > s.gs[s.order[b]].CHat
	}
	return s.gs[s.order[a]].Slope() > s.gs[s.order[b]].Slope()
}
func (s *tailSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
