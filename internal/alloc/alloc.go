// Package alloc solves the single-knapsack concave resource allocation
// problem: given utility functions f_1..f_n and a budget B, choose
// allocations x_i ∈ [0, f_i.Cap()] with Σ x_i ≤ B maximizing Σ f_i(x_i).
//
// This is the classic separable concave allocation problem. Concave
// implies a water-filling optimum: there is a marginal value λ ≥ 0 such
// that every thread is allocated up to the point where its derivative
// drops to λ. Concave solves it by bisection on λ, the same structure as
// Galil's O(n (log B)²) algorithm cited by the paper; Greedy is Fox's
// unit-by-unit greedy, exact at a fixed granularity and used as ground
// truth in tests.
//
// The paper's super-optimal allocation (Definition V.1) is exactly
// Concave with budget B = m·C and per-thread caps C.
package alloc

import (
	"math"
	"slices"
	"sync"

	"aa/internal/rng"
	"aa/internal/utility"
)

// Result is the outcome of an allocation.
type Result struct {
	// Alloc[i] is the resource given to thread i.
	Alloc []float64
	// Total is Σ f_i(Alloc[i]).
	Total float64
	// Lambda is the water-filling marginal value found by Concave
	// (0 for allocators that do not compute one).
	Lambda float64
	// Iterations counts the λ-search steps Concave performed (doubling
	// plus bisection; 0 for the trivial all-caps case and for other
	// allocators). It is the empirical counterpart of the paper's
	// O(n (log mC)²) bound and feeds the aa_core_bisection_iterations
	// telemetry counter.
	Iterations int
}

// TotalValue returns Σ f_i(alloc[i]).
func TotalValue(fs []utility.Func, alloc []float64) float64 {
	total := 0.0
	for i, f := range fs {
		total += f.Value(alloc[i])
	}
	return total
}

// Concave computes a water-filling optimal allocation of budget among the
// concave utilities fs by bisection on the marginal value λ. Each thread's
// allocation is capped at its own f.Cap(). The returned allocations sum to
// at most budget (up to 1e-9 relative tolerance).
//
// If Σ caps <= budget every thread simply receives its cap. Plateaus in
// the derivatives (piecewise-linear utilities) are handled by a final
// redistribution pass among threads whose marginal equals λ.
//
// It prunes the λ-search: the per-thread amount x_i(λ) =
// InverseDeriv_i(λ) is nonincreasing in λ, so once a probe on a branch
// that only raises λ finds x_i = 0 the thread is settled at 0 for the
// rest of the search, and once a probe on a branch that only lowers λ
// finds x_i = Cap_i the thread is settled at its cap. Settled threads
// drop out of the active set and later probes never re-evaluate them;
// their sum is carried as a constant. Probe cost decays from O(n) toward
// O(#threads interior at the optimum), which on capacity-tight workloads
// is a small fraction of n.
//
// Concave borrows its Scratch from an internal pool; ConcaveWith takes a
// caller-owned one. check.ConcaveRef is the unpruned reference
// implementation kept for differential testing.
func Concave(fs []utility.Func, budget float64) Result {
	sc := concavePool.Get().(*Scratch)
	defer concavePool.Put(sc)
	return ConcaveWith(sc, nil, fs, budget)
}

// Scratch is the per-solve working set of the pruned bisection. Concave
// borrows one from an internal pool; ConcaveWith takes a caller-owned Scratch instead, so parallel solvers
// can give every worker its own and keep pool traffic (and the cache
// bouncing it implies) out of their hot loops. The zero value is ready
// to use; buffers grow on first solve and are reused afterwards, with
// append's amortized headroom, so a thread set that grows by one per
// solve reallocates only now and then. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	caps   []float64
	active []int
}

// grow sizes the scratch for n threads, reusing prior capacity.
func (sc *Scratch) grow(n int) {
	sc.caps = slices.Grow(sc.caps[:0], n)
	sc.active = slices.Grow(sc.active[:0], n)
}

var concavePool = sync.Pool{New: func() any { return new(Scratch) }}

// ConcaveWith is Concave on a caller-owned Scratch instead of the
// package pool, writing the allocation into dst (grown if its capacity
// is short, so pass a slice with capacity >= len(fs) for an
// allocation-free solve) — the parallel-solver form: one Scratch per
// worker means concurrent solves share no state at all.
func ConcaveWith(sc *Scratch, dst []float64, fs []utility.Func, budget float64) Result {
	return concave(sc, dst, nil, fs, budget, 0)
}

// ConcaveValuesWith is ConcaveWith on a caller-owned Scratch that also
// returns each thread's value f_i(Alloc[i]) in vals (grown like dst).
// Total is the index-order sum of exactly those values, so it is
// bit-identical to ConcaveWith's Total, and a caller that needs both the
// per-thread values and the total evaluates each thread once.
//
// A finite lambdaHint > 0 warm-starts the λ-search from the
// water-filling price of a previous, nearby solve (Result.Lambda). When
// only a few utilities changed, Σ x_i(λ_hint) already lands within a
// few caps of the budget, so a geometric bracket around the hint plus an
// Illinois-damped false-position refinement reaches the budget-gap
// tolerance in a handful of O(n) probes instead of the cold search's
// dozens. The warm result is feasible under exactly the same contract
// as ConcaveWith (allocations within per-thread caps, Σ x_i ≤ budget up
// to tolerance) but is NOT bit-identical to a cold solve: its total
// utility sits within warmRelTol·budget·λ of the cold optimum. Callers
// that need the cold fixed point (or have no previous price) pass
// lambdaHint ≤ 0.
func ConcaveValuesWith(sc *Scratch, dst, vals []float64, fs []utility.Func, budget, lambdaHint float64) (Result, []float64) {
	res := concave(sc, dst, &vals, fs, budget, lambdaHint)
	return res, vals
}

// concave is the one water-filling implementation behind ConcaveWith
// and ConcaveValuesWith: a finite lambdaHint > 0 runs the warm search,
// anything else the cold bisection, and both share the probe set and the
// endgame. vals, when non-nil, receives the per-thread values (see
// total).
func concave(sc *Scratch, dst []float64, vals *[]float64, fs []utility.Func, budget, lambdaHint float64) Result {
	n := len(fs)
	dst = slices.Grow(dst[:0], n)[:n]
	if n == 0 || budget <= 0 {
		clear(dst)
		if vals != nil {
			total(fs, dst, vals) // the values of the empty allocation; Total stays 0
		}
		return Result{Alloc: dst}
	}

	sc.grow(n)
	p := search{fs: fs, dst: dst, caps: sc.caps[:n], active: sc.active[:0]}

	// Trivial case: budget covers every cap.
	capSum := 0.0
	for i, f := range fs {
		p.caps[i] = f.Cap()
		capSum += p.caps[i]
	}
	if capSum <= budget {
		copy(dst, p.caps)
		return Result{Alloc: dst, Total: total(fs, dst, vals)}
	}
	for i := range fs {
		p.active = append(p.active, i)
	}

	var lo, hi float64
	var iterations int
	if lambdaHint > 0 && !math.IsInf(lambdaHint, 0) {
		lo, hi, iterations = p.warm(budget, lambdaHint)
	} else {
		lo, hi, iterations = p.cold(budget)
	}
	p.finish(budget, lo, hi)
	return Result{Alloc: dst, Total: total(fs, dst, vals), Lambda: hi, Iterations: iterations}
}

// total returns Σ f_i(alloc[i]) in index order. With vals non-nil it
// also records every term in *vals (grown to len(alloc)), so the sum is
// exactly the index-order sum of the recorded values.
func total(fs []utility.Func, alloc []float64, vals *[]float64) float64 {
	if vals == nil {
		return TotalValue(fs, alloc)
	}
	v := slices.Grow((*vals)[:0], len(alloc))[:len(alloc)]
	*vals = v
	sum := 0.0
	for i, f := range fs {
		v[i] = f.Value(alloc[i])
		sum += v[i]
	}
	return sum
}

// search is the pruned λ-search's probe state: dst holds the amounts of
// the last probe, active the threads not yet settled, and base the
// settled threads' contribution to Σ x_i(λ).
type search struct {
	fs     []utility.Func
	dst    []float64
	caps   []float64
	active []int
	base   float64
}

// sum probes λ: it writes x_i(λ) for every active thread into dst and
// returns Σ x_i(λ) over all threads.
func (p *search) sum(lambda float64) float64 {
	fs, dst := p.fs, p.dst
	sum := p.base
	for _, i := range p.active {
		x := utility.InverseDeriv(fs[i], lambda, 1e-12)
		dst[i] = x
		sum += x
	}
	return sum
}

// settleAtZero drops threads the last (over-budget) probe priced out;
// every later evaluation uses a λ at least as large, where x_i stays 0.
func (p *search) settleAtZero() {
	kept := p.active[:0]
	for _, i := range p.active {
		if p.dst[i] != 0 {
			kept = append(kept, i)
		}
	}
	p.active = kept
}

// settleAtCap drops threads the last (within-budget) probe saturated;
// every later evaluation uses a λ no larger, where x_i stays Cap_i.
func (p *search) settleAtCap() {
	kept := p.active[:0]
	for _, i := range p.active {
		if p.dst[i] == p.caps[i] {
			p.base += p.caps[i]
		} else {
			kept = append(kept, i)
		}
	}
	p.active = kept
}

// cold is the cold λ-search: double λ until the sum fits the budget,
// then bisect the bracket down to float64 noise, so repeated cold solves
// are bit-identical. It returns the final bracket [lo, hi].
func (p *search) cold(budget float64) (lo, hi float64, iterations int) {
	// Find hi with sum(hi) <= budget by doubling. λ = 0 gives capSum >
	// budget, so the optimal λ is positive. Only the over-budget probes
	// (the ones that keep the loop running) settle threads: the search
	// never revisits a λ below the probe that priced a thread out.
	lo, hi = 0.0, 1.0
	for p.sum(hi) > budget {
		iterations++
		p.settleAtZero()
		lo = hi
		hi *= 2
		if hi > 1e18 {
			break // derivatives are astronomically steep; give up doubling
		}
	}

	// Bisect λ. 100 iterations gives ~2^-100 relative precision, far past
	// float64; we stop early once the interval is negligible.
	for iter := 0; iter < 200 && hi-lo > 1e-15*(1+hi); iter++ {
		iterations++
		mid := 0.5 * (lo + hi)
		if p.sum(mid) > budget {
			lo = mid
			p.settleAtZero()
		} else {
			hi = mid
			p.settleAtCap()
		}
	}
	return lo, hi, iterations
}

// finish is the endgame of both searches. It uses the feasible end
// (λ = hi ⇒ sum <= budget), then hands out any remaining budget to
// plateau threads: those that would take more at λ = lo. Giving them the
// leftovers is optimal because their marginal utility in the gap is
// exactly the water level. Settled threads take nothing in the gap — a
// thread at its cap has no headroom and a priced-out thread still prices
// out at λ = lo — so only the active set is scanned, in index order.
func (p *search) finish(budget, lo, hi float64) {
	dst := p.dst
	sum := p.sum(hi)
	if sum > budget {
		// The doubling search gave up: even at λ = 1e18 the derivatives
		// are steeper than the water level, so every probed allocation
		// over-fills the budget. Feasibility must hold unconditionally,
		// so scale the whole vector back onto the budget; scaling down
		// keeps every x_i within its cap, and the utility lost versus
		// the true optimum is bounded by the water-level gap beyond the
		// deepest probed λ (astronomically small in practice). Lambda
		// reports that deepest probe so callers can tell this path from
		// an exact search. No thread can be settled at cap here (that
		// needs a within-budget probe, which ends the doubling search),
		// so scaling the whole vector touches only live amounts.
		scale := budget / sum
		for i := range dst {
			dst[i] *= scale
		}
		return
	}
	remaining := budget - sum
	if remaining > 0 {
		for _, i := range p.active {
			if remaining <= 1e-12*budget {
				break
			}
			more := utility.InverseDeriv(p.fs[i], lo, 1e-12) - dst[i]
			if more <= 0 {
				continue
			}
			grant := math.Min(more, remaining)
			dst[i] += grant
			remaining -= grant
		}
	}
}

// Greedy is Fox's unit-greedy allocator: it repeatedly grants one unit of
// resource to the thread with the greatest marginal utility for its next
// unit, until the budget is exhausted or no thread gains from more
// resource. For concave utilities this is exact at the chosen
// granularity. Runtime O((budget/unit)·log n).
//
// Budget quantization: exactly ⌊budget/unit⌋ grants are made and the
// fractional remainder of budget/unit is deliberately left unallocated —
// it is the granularity error the caller accepted by choosing unit, and
// keeping all grants on the unit grid is what makes Greedy directly
// comparable with DPExact at the same granularity. A grant never exceeds
// a thread's remaining headroom: a thread whose Cap() is below unit (or
// not a multiple of it) receives min(unit, Cap−alloc) on its final grant,
// though the grant still consumes one whole budget unit.
func Greedy(fs []utility.Func, budget, unit float64) Result {
	n := len(fs)
	alloc := make([]float64, n)
	if n == 0 || budget <= 0 || unit <= 0 {
		return Result{Alloc: alloc}
	}
	h := newGainHeap(n)
	// push re-inserts a thread keyed by the gain of its next grant,
	// min(unit, remaining headroom); threads at their cap drop out.
	push := func(thread int) {
		f := fs[thread]
		room := f.Cap() - alloc[thread]
		if room <= 0 {
			return
		}
		if g := marginalGain(f, alloc[thread], math.Min(unit, room)); g > 0 {
			h.push(gainItem{thread: thread, gain: g})
		}
	}
	for i := range fs {
		push(i)
	}
	units := int(budget / unit)
	for step := 0; step < units && h.len() > 0; step++ {
		it := h.pop()
		f := fs[it.thread]
		grant := math.Min(unit, f.Cap()-alloc[it.thread])
		if grant <= 0 {
			// Unreachable by construction: push only enqueues threads with
			// headroom and each thread sits in the heap at most once, so a
			// popped thread always has room. Tolerated in release builds,
			// fatal under -tags aadebug so a regression cannot hide as a
			// silently skipped grant.
			if debugChecks {
				panic("alloc: Greedy popped a thread with no headroom")
			}
			continue
		}
		alloc[it.thread] += grant
		push(it.thread)
	}
	return Result{Alloc: alloc, Total: TotalValue(fs, alloc)}
}

// marginalGain is f(x+unit) - f(x).
func marginalGain(f utility.Func, x, unit float64) float64 {
	return f.Value(x+unit) - f.Value(x)
}

// EqualSplit gives each thread budget/n, capped at its own Cap. This is
// the per-server allocation used by the paper's UU and RU heuristics.
func EqualSplit(fs []utility.Func, budget float64) Result {
	n := len(fs)
	alloc := make([]float64, n)
	if n == 0 || budget <= 0 {
		return Result{Alloc: alloc}
	}
	share := budget / float64(n)
	for i, f := range fs {
		alloc[i] = math.Min(share, f.Cap())
	}
	return Result{Alloc: alloc, Total: TotalValue(fs, alloc)}
}

// RandomSplit allocates each thread an independent uniform random amount
// of the server's resource, scaled down proportionally if the draws
// exceed the budget, and capped at each thread's own Cap. This is the
// paper's "random allocation" used by the UR and RR heuristics; notably
// a lone thread receives a uniformly random share rather than
// everything, which is why UR is suboptimal even at β = 1 (§VII-A).
func RandomSplit(fs []utility.Func, budget float64, r *rng.Rand) Result {
	n := len(fs)
	alloc := make([]float64, n)
	if n == 0 || budget <= 0 {
		return Result{Alloc: alloc}
	}
	sum := 0.0
	for i := range alloc {
		alloc[i] = r.Float64() * budget
		sum += alloc[i]
	}
	scale := 1.0
	if sum > budget {
		scale = budget / sum
	}
	for i, f := range fs {
		alloc[i] *= scale
		if c := f.Cap(); alloc[i] > c {
			alloc[i] = c
		}
	}
	return Result{Alloc: alloc, Total: TotalValue(fs, alloc)}
}

// gainHeap is a max-heap of (thread, marginal gain) pairs.
type gainItem struct {
	thread int
	gain   float64
}

type gainHeap struct {
	items []gainItem
}

func newGainHeap(capacity int) *gainHeap {
	return &gainHeap{items: make([]gainItem, 0, capacity)}
}

func (h *gainHeap) len() int { return len(h.items) }

func (h *gainHeap) push(it gainItem) {
	// Each thread occupies at most one slot (Greedy re-pushes only after a
	// pop), so the backing array pre-sized to n in newGainHeap never
	// regrows in the units loop; the append below must stay in place.
	if debugChecks && len(h.items) == cap(h.items) {
		panic("alloc: gainHeap grew past its pre-sized capacity")
	}
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].gain >= h.items[i].gain {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *gainHeap) pop() gainItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && h.items[l].gain > h.items[largest].gain {
			largest = l
		}
		if r < last && h.items[r].gain > h.items[largest].gain {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}
