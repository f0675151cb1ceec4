package hetero

import (
	"math"
	"sort"

	"aa/internal/alloc"
	"aa/internal/core"
	"aa/internal/utility"
)

// Workspace holds the scratch one heterogeneous solve needs — the
// capped utility wrappers, the relaxation result, the service order and
// the residual capacities — so a series of solves (SkewSeries) reuses
// one arena instead of allocating per instance.
// A Workspace is single-goroutine, like core.Workspace.
type Workspace struct {
	capped   []capped
	fs       []utility.Func
	soAlloc  []float64
	soValue  []float64
	order    []int
	slopes   []float64
	residual []float64
	sorter   keyDescSorter
	allocSc  alloc.Scratch
}

// keyDescSorter stably orders an index slice by descending key without
// the per-call closure and reflection allocations of sort.SliceStable.
// Stable sorts produce a unique order for a given key, so this matches
// the previous sort.SliceStable output exactly.
type keyDescSorter struct {
	order []int
	key   []float64
}

func (s *keyDescSorter) Len() int           { return len(s.order) }
func (s *keyDescSorter) Less(a, b int) bool { return s.key[s.order[a]] > s.key[s.order[b]] }
func (s *keyDescSorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// SuperOptimal is Workspace-pooled SuperOptimal: the returned slices
// are workspace memory, valid until the next call on this workspace.
func (w *Workspace) SuperOptimal(in *Instance) core.SuperOpt {
	n := in.N()
	maxCap := in.MaxCap()
	if cap(w.capped) < n {
		w.capped = make([]capped, n)
		w.fs = make([]utility.Func, n)
		w.soValue = make([]float64, n)
	}
	w.capped = w.capped[:n]
	w.fs = w.fs[:n]
	w.soValue = w.soValue[:n]
	for i, f := range in.Threads {
		c := f.Cap()
		if c > maxCap {
			c = maxCap
		}
		w.capped[i] = capped{f: f, c: c}
		w.fs[i] = &w.capped[i]
	}
	res := alloc.ConcaveWith(&w.allocSc, w.soAlloc, w.fs, in.TotalCap())
	w.soAlloc = res.Alloc
	so := core.SuperOpt{Alloc: res.Alloc, Value: w.soValue, Total: res.Total}
	for i := range w.fs {
		so.Value[i] = w.fs[i].Value(res.Alloc[i])
	}
	return so
}

// Assign is Workspace-pooled Assign: it fills out (growing its slices
// only when the instance is larger than any seen before) and returns
// the super-optimal bound it linearized from.
func (w *Workspace) Assign(in *Instance, out *Assignment) float64 {
	so := w.SuperOptimal(in)
	n, m := in.N(), in.M()

	if cap(w.order) < n {
		w.order = make([]int, n)
		w.slopes = make([]float64, n)
	}
	w.order = w.order[:n]
	w.slopes = w.slopes[:n]
	for i := range w.order {
		w.order[i] = i
		if so.Alloc[i] <= 0 {
			w.slopes[i] = 0
		} else {
			w.slopes[i] = so.Value[i] / so.Alloc[i]
		}
	}
	order := w.order
	w.sorter = keyDescSorter{order: order, key: so.Value}
	sort.Stable(&w.sorter)
	if n > m {
		w.sorter = keyDescSorter{order: order[m:], key: w.slopes}
		sort.Stable(&w.sorter)
	}

	if cap(w.residual) < m {
		w.residual = make([]float64, m)
	}
	w.residual = w.residual[:m]
	copy(w.residual, in.Caps)

	if cap(out.Server) < n {
		out.Server = make([]int, n)
		out.Alloc = make([]float64, n)
	}
	out.Server = out.Server[:n]
	out.Alloc = out.Alloc[:n]
	for _, i := range order {
		j := argmax(w.residual)
		amount := math.Min(so.Alloc[i], w.residual[j])
		out.Server[i] = j
		out.Alloc[i] = amount
		w.residual[j] -= amount
	}
	return so.Total
}
