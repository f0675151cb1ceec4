// Package alloc solves the single-knapsack concave resource allocation
// problem: given utility functions f_1..f_n and a budget B, choose
// allocations x_i ∈ [0, f_i.Cap()] with Σ x_i ≤ B maximizing Σ f_i(x_i).
//
// This is the classic separable concave allocation problem. Concave
// implies a water-filling optimum: there is a marginal value λ ≥ 0 such
// that every thread is allocated up to the point where its derivative
// drops to λ. Concave solves it by a bracketed search on λ (secant steps
// safeguarded by bisection), the λ-search of Galil's O(n (log B)²)
// algorithm cited by the paper; Greedy is Fox's unit-by-unit greedy,
// exact at a fixed granularity and used as ground truth in tests.
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
	// Iterations counts Concave's λ probes, each one InverseDeriv pass
	// over the unsettled threads (0 for the trivial all-caps case and for
	// other allocators): the empirical counterpart of the paper's
	// O(n (log mC)²) bound, fed to aa_core_bisection_iterations_total.
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
// concave utilities fs by a bracketed search on the marginal value λ.
// Each thread's allocation is capped at its own f.Cap(). The returned
// allocations sum to at most budget (up to 1e-9 relative tolerance).
//
// If Σ caps <= budget every thread simply receives its cap. Plateaus in
// the derivatives (piecewise-linear utilities) are handled by a final
// redistribution pass among threads whose marginal equals λ.
//
// Concave borrows its Scratch from an internal pool; ConcaveWith takes a
// caller-owned one. check.ConcaveRef is the unpruned bisection kept for
// differential testing; Concave lands on its final bracket, so the two
// agree up to the rounding of the pruned sums.
func Concave(fs []utility.Func, budget float64) Result {
	sc := concavePool.Get().(*Scratch)
	defer concavePool.Put(sc)
	return ConcaveWith(sc, nil, fs, budget)
}

// Scratch is the per-solve working set of the λ-search. Concave
// borrows one from an internal pool; ConcaveWith takes a caller-owned
// one, so parallel solvers give every worker its own and keep pool
// traffic out of their hot loops. The zero value is ready to use;
// buffers grow on first solve and are reused afterwards (with append's
// amortized headroom). A Scratch is not safe for concurrent use.
type Scratch struct {
	caps, xlo, xhi, vals []float64
	active               []int
}

// grow sizes the scratch for n threads, reusing prior capacity.
func (sc *Scratch) grow(n int) {
	sc.caps = slices.Grow(sc.caps[:0], n)
	sc.xlo = slices.Grow(sc.xlo[:0], n)
	sc.xhi = slices.Grow(sc.xhi[:0], n)
	sc.active = slices.Grow(sc.active[:0], n)
}

var concavePool = sync.Pool{New: func() any { return new(Scratch) }}

// ConcaveWith is Concave on a caller-owned Scratch instead of the
// package pool, writing the allocation into dst (grown if its capacity
// is short, so pass a slice with capacity >= len(fs) for an
// allocation-free solve) — the parallel-solver form: one Scratch per
// worker means concurrent solves share no state at all.
func ConcaveWith(sc *Scratch, dst []float64, fs []utility.Func, budget float64) Result {
	return concave(sc, dst, &sc.vals, fs, budget, 0, nil)
}

// ConcaveValuesWith is ConcaveWith on a caller-owned Scratch that also
// returns each thread's value f_i(Alloc[i]) in vals (grown like dst).
// Total is the index-order sum of exactly those values, so it is
// bit-identical to ConcaveWith's Total, and a caller that needs both the
// per-thread values and the total evaluates each thread once.
//
// A finite lambdaHint > 0 warm-starts the λ-search from the
// water-filling price of a previous, nearby solve (Result.Lambda): the
// bracket grows geometrically around the hint instead of from λ = 1,
// and the search stops once the budget gap is within 1e-9·budget
// instead of at the cold float-noise bracket. hintAlloc, when non-nil,
// holds the previous solve's amount for each thread it covered (NaN for
// the others), and the first probe, at the hint, takes those amounts
// instead of evaluating the covered threads. The warm result is
// feasible under the same contract as ConcaveWith but is NOT
// bit-identical to a cold solve: its total utility sits within
// 1e-9·budget·λ of the cold optimum. Callers that need the cold
// fixed point (or have no previous price) pass lambdaHint ≤ 0.
func ConcaveValuesWith(sc *Scratch, dst, vals []float64, fs []utility.Func, budget, lambdaHint float64, hintAlloc []float64) (Result, []float64) {
	res := concave(sc, dst, &vals, fs, budget, lambdaHint, hintAlloc)
	return res, vals
}

// concave is the one water-filling implementation behind ConcaveWith
// and ConcaveValuesWith; cold and warm solves differ only in their
// starting bracket and stop rule. vals receives the per-thread values
// (see total).
func concave(sc *Scratch, dst []float64, vals *[]float64, fs []utility.Func, budget, lambdaHint float64, hintAlloc []float64) Result {
	n := len(fs)
	dst = slices.Grow(dst[:0], n)[:n]
	if n == 0 || budget <= 0 {
		clear(dst)
		total(fs, dst, vals) // the values of the empty allocation; Total stays 0
		return Result{Alloc: dst}
	}

	sc.grow(n)
	caps, xlo := sc.caps[:n], sc.xlo[:n]

	// Trivial case: budget covers every cap.
	capSum := 0.0
	for i, f := range fs {
		caps[i] = f.Cap()
		xlo[i] = caps[i] // λ = 0 gives every thread its cap
		capSum += caps[i]
	}
	if capSum <= budget {
		copy(dst, caps)
		return Result{Alloc: dst, Total: total(fs, dst, vals)}
	}
	p := search{fs: fs, dst: dst, caps: caps, xlo: xlo, xhi: sc.xhi[:n], active: sc.active[:0], budget: budget, sLo: capSum}
	for i := range fs {
		p.active = append(p.active, i)
	}

	tol, bracketed := -1.0, false // the cold search never stops on the budget gap
	if lambdaHint > 0 && !math.IsInf(lambdaHint, 0) {
		tol = 1e-9 * budget // the endgame hands this residue to plateau threads
		bracketed = p.bracketAround(lambdaHint, tol, hintAlloc)
	} else {
		bracketed = p.bracketUp(1, 1)
	}
	if bracketed {
		p.refine(tol)
	}
	p.finish(bracketed)
	return Result{Alloc: dst, Total: total(fs, dst, vals), Lambda: p.hi, Iterations: p.probes}
}

// total returns Σ f_i(alloc[i]) in index order and records every term
// in *vals (grown to len(alloc)), so the sum is exactly the index-order
// sum of the recorded values.
func total(fs []utility.Func, alloc []float64, vals *[]float64) float64 {
	v := slices.Grow((*vals)[:0], len(alloc))[:len(alloc)]
	*vals = v
	sum := 0.0
	for i, f := range fs {
		v[i] = f.Value(alloc[i])
		sum += v[i]
	}
	return sum
}

// search is the λ-search's state. S(λ) = Σ x_i(λ), x_i(λ) =
// InverseDeriv_i(λ), is nonincreasing, and the search keeps a bracket
// lo < hi with S(lo) > budget >= S(hi), starting from lo = 0. dst holds
// the last probe's amounts, xlo and xhi each active thread's amount at lo
// and at hi, and base the settled threads' share of S.
type search struct {
	fs           []utility.Func
	dst, caps    []float64
	xlo, xhi     []float64
	active       []int
	budget, base float64
	lo, hi, lo2  float64 // lo2: the previous lo
	sLo, sHi     float64 // S(lo), S(hi)
	sLo2         float64 // S(lo2); 0 when no slope may be read across lo2..lo
	flatHi       bool    // no active thread takes anything at hi
	probes       int
}

// probe evaluates S(λ), moves the matching end of the bracket to λ and
// reports whether S(λ) > budget. It prunes: x_i(λ) is nonincreasing, so
// a thread an over-budget probe prices out stays at 0 for every later
// probe (they use a λ at least as large), and one a within-budget probe
// saturates stays at its cap. Settled threads leave the active set, so
// probe cost decays from O(n) toward O(#threads interior at λ*). A
// non-NaN known[i] (known may be nil) is thread i's amount at λ.
func (p *search) probe(lambda float64, known []float64) bool {
	p.probes++
	fs, dst := p.fs, p.dst
	sum := p.base
	for _, i := range p.active {
		if known == nil || math.IsNaN(known[i]) {
			dst[i] = utility.InverseDeriv(fs[i], lambda, 1e-12)
		} else {
			dst[i] = known[i]
		}
		sum += dst[i]
	}
	kept := p.active[:0]
	if sum > p.budget {
		p.lo2, p.sLo2, p.lo, p.sLo = p.lo, p.sLo, lambda, sum
		for _, i := range p.active {
			if x := dst[i]; x != 0 {
				kept = append(kept, i)
				p.xlo[i] = x
			}
		}
		p.active = kept
		return true
	}
	p.hi, p.sHi, p.flatHi = lambda, sum, true
	for _, i := range p.active {
		if x := dst[i]; x == p.caps[i] {
			p.base += x
		} else {
			kept = append(kept, i)
			p.xhi[i] = x
			p.flatHi = p.flatHi && x == 0
		}
	}
	p.active = kept
	return false
}

// bracketUp probes λ, then raises it by step, doubling the step, while
// S(λ) is over budget; from λ = step = 1 that is the cold bracket. It
// reports false if it gave up past λ = 1e18, with dst holding the
// amounts there.
func (p *search) bracketUp(lambda, step float64) bool {
	for p.probe(lambda, nil) {
		if lambda > 1e18 {
			p.hi = lambda
			return false
		}
		lambda, step = lambda+step, 2*step
	}
	return true
}

// bracketAround is the warm bracket: probe the hint (taking the amounts
// in known there), then step away from it, the step doubling from
// hint/64 (never 0), until a probe lands past the root, or below the
// hint the gap is within tol or the step reaches the hint (lo stays 0).
func (p *search) bracketAround(hint, tol float64, known []float64) bool {
	step := max(hint/64, math.SmallestNonzeroFloat64)
	if p.probe(hint, known) {
		return p.bracketUp(hint+step, 2*step)
	}
	for ; p.budget-p.sHi > tol && step < hint; step *= 2 {
		if p.probe(hint-step, nil) {
			break
		}
	}
	return true
}

// refine narrows the bracket until the budget gap at hi is within tol or
// hi−lo ≤ 1e-15·(1+hi), the cold stop rule.
//
// Probes sit on a grid: the bisection tree of the initial bracket, one
// level below the deepest level whose cells all fail the stop rule. The
// search so ends in the bisection's final cell, and the cold answer is
// the bisection's, plateau threads included, up to the rounding of the
// pruned sums. A step other than a pair's second probe bisects when the
// bracket is over half what it was two steps back, which holds the
// probes to four times the bisection's (DESIGN.md, "Pruned λ-search",
// has both arguments). The step rule:
//   - until a probe lands over budget, divide λ by 16;
//   - unless two steps failed to halve the bracket: if the thread that
//     drops most across it is linear across its drop, S jumps at its
//     slope, so probe the grid points either side;
//   - if no active thread takes anything at hi, extrapolate S from the
//     last two over-budget probes;
//   - while hi > 4·lo, a geometric step;
//   - if S is flat at hi or two steps failed to halve the bracket,
//     bisect; otherwise a secant step on log S, which fits the convex
//     decay of S near the edge of its support;
//   - if the same end moved twice, step half as far again past the
//     estimate, so the next probe lands beyond the root.
func (p *search) refine(tol float64) {
	base, w := p.lo, p.hi-p.lo
	if w <= 1e-15*(1+p.hi) {
		return
	}
	for w/2 > 1e-15*(1+p.hi) {
		w /= 2
	}
	w /= 2
	jl, jh := int64(0), int64(math.Round((p.hi-p.lo)/w))
	at := func(j int64) float64 { return base + float64(j)*w }

	target := p.budget // the secant aims at the middle of the warm window
	if tol > 0 {
		target -= tol / 2
	}
	side, repeat := 0, false          // the end the last probe moved (+1 lo, -1 hi); whether the one before moved it too
	width := [2]int64{2 * jh, 2 * jh} // bracket widths two and one steps back
	next := int64(-1)                 // the far side of the last breakpoint probe
	for jh-jl > 1 && p.budget-p.sHi > tol {
		stalled := 2*(jh-jl) > width[0]
		width[0], width[1] = width[1], jh-jl
		follow := next > jl && next < jh
		lambda, pair := 0.5*(p.lo+p.hi), false
		switch {
		case follow:
		case p.lo == 0:
			lambda = p.hi / 16
		default:
			if !stalled {
				lambda, pair = p.breakpoint()
			}
			if pair {
				break
			}
			switch {
			case p.flatHi && p.sLo2 > p.sLo && side > 0:
				lambda = p.lo + (p.sLo-target)*(p.lo-p.lo2)/(p.sLo2-p.sLo)
			case p.hi > 4*p.lo:
				lambda = math.Sqrt(p.lo * p.hi)
			case p.flatHi || stalled:
				lambda = 0.5 * (p.lo + p.hi)
			default:
				gLo, gHi := math.Log(p.sLo/target), math.Log(p.sHi/target)
				lambda = p.lo + gLo/(gLo-gHi)*(p.hi-p.lo)
			}
			if repeat && side > 0 {
				lambda += min(lambda-p.lo, p.hi-lambda) / 2
			} else if repeat {
				lambda -= min(p.hi-lambda, lambda-p.lo) / 2
			}
		}
		j := next
		if !follow {
			if !(lambda >= p.lo && lambda <= p.hi) {
				lambda = 0.5 * (p.lo + p.hi)
			}
			j = min(max(int64(math.Round((lambda-base)/w)), jl+1), jh-1)
		}
		s := -1
		if p.probe(at(j), nil) {
			jl, s = j, +1
		} else {
			jh = j
		}
		repeat, side, next = s == side, s, -1
		if pair {
			next = j + int64(s)
		} else if follow {
			p.sLo2 = 0 // the pair straddles a jump: no slope to read across it
		}
	}
	for p.budget-p.sHi > tol && p.hi-p.lo > 1e-15*(1+p.hi) {
		p.probe(0.5*(p.lo+p.hi), nil)
	}
}

// breakpoint looks for a jump of S inside the bracket: the active thread
// whose amount drops most across it, if the drop is not negligible and
// the thread's slope is the same a quarter and three quarters of the way
// down it. It returns the slope halfway down and whether it found one
// inside the bracket.
func (p *search) breakpoint() (float64, bool) {
	best, drop := -1, 0.0
	for _, i := range p.active {
		if d := p.xlo[i] - p.xhi[i]; d > drop {
			best, drop = i, d
		}
	}
	if best < 0 || drop < 1e-6*p.caps[best] {
		return 0, false
	}
	f, x := p.fs[best], p.xhi[best]
	s, s1, s3 := f.Deriv(x+0.5*drop), f.Deriv(x+0.25*drop), f.Deriv(x+0.75*drop)
	return s, math.Abs(s1-s3) <= 1e-9*s && s >= p.lo && s < p.hi
}

// finish takes the amounts at the feasible end λ = hi, then hands any
// remaining budget to plateau threads: those that would take more at
// λ = lo. Giving them the leftovers is optimal because their marginal
// utility in the gap is exactly the water level. Settled threads take
// nothing in the gap, so only the active set is scanned, in index order.
//
// If the doubling gave up, even λ = 1e18 over-fills the budget: the
// amounts there are scaled back onto it, within every cap.
func (p *search) finish(bracketed bool) {
	dst, budget, sum := p.dst, p.budget, p.base
	for _, i := range p.active {
		if bracketed {
			dst[i] = p.xhi[i]
		}
		sum += dst[i]
	}
	if !bracketed {
		for i := range dst {
			dst[i] *= budget / sum
		}
		return
	}
	remaining := budget - sum
	for _, i := range p.active {
		if remaining <= 1e-12*budget {
			break
		}
		if more := p.xlo[i] - dst[i]; more > 0 {
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
