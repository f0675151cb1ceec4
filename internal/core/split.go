package core

import (
	"slices"

	"aa/internal/alloc"
	"aa/internal/rng"
	"aa/internal/utility"
)

// SplitRule is how Split shares one server's capacity among the threads
// placed on it.
type SplitRule int

const (
	// SplitConcave is the optimal water-filling split (alloc.Concave).
	SplitConcave SplitRule = iota
	// SplitEqual gives every thread an equal share (alloc.EqualSplit),
	// the paper's "uniform allocation".
	SplitEqual
	// SplitRandom draws random shares (alloc.RandomSplit), the paper's
	// "random allocation".
	SplitRandom
)

// Groups lists the threads on each of m servers, in ascending thread
// order, for a thread→server map.
func Groups(servers []int, m int) [][]int {
	groups := make([][]int, m)
	for i, s := range servers {
		groups[s] = append(groups[s], i)
	}
	return groups
}

// Split allocates a fixed placement: groups[j] lists the threads on
// server j, whose capacity is caps[j]. Each server's threads, capped at
// min(own cap, caps[j]), share caps[j] by rule, in the order the group
// lists them. Servers are visited in ascending id order and empty ones
// are skipped, so SplitRandom draws from r in that order. Split writes
// each thread's allocation into allocs when it is non-nil and returns
// the total utility, summed server by server. It runs on a pooled
// Workspace.
func Split(threads []utility.Func, groups [][]int, caps []float64, rule SplitRule, r *rng.Rand, allocs []float64) float64 {
	w := GetWorkspace()
	defer PutWorkspace(w)
	return w.split(threads, groups, caps, rule, r, allocs)
}

// split is Split on the workspace: one SplitGroup per non-empty server.
func (w *Workspace) split(threads []utility.Func, groups [][]int, caps []float64, rule SplitRule, r *rng.Rand, allocs []float64) float64 {
	total := 0.0
	for j, group := range groups {
		if len(group) == 0 {
			continue
		}
		res := w.SplitGroup(threads, group, caps[j], caps[j], rule, r)
		total += res.Total
		if allocs != nil {
			for k, i := range group {
				allocs[i] = res.Alloc[k]
			}
		}
	}
	return total
}

// SplitGroup is the one per-server split every solver shares: the
// threads group lists, each capped at min(its own cap, c), share budget
// by rule, in the order the group lists them. Result.Alloc[k] is
// thread group[k]'s share. Under SplitConcave the wrappers, the
// λ-search scratch and the allocation are workspace scratch, so a
// steady-state call allocates nothing; Result.Alloc is valid until the
// next call on w.
func (w *Workspace) SplitGroup(threads []utility.Func, group []int, c, budget float64, rule SplitRule, r *rng.Rand) alloc.Result {
	n := len(group)
	w.capped = slices.Grow(w.capped[:0], n)[:n]
	w.fs = slices.Grow(w.fs[:0], n)[:n]
	for k, i := range group {
		w.capped[k] = utility.Capped{F: threads[i], C: min(threads[i].Cap(), c)}
		w.fs[k] = &w.capped[k]
	}
	switch rule {
	case SplitEqual:
		return alloc.EqualSplit(w.fs, budget)
	case SplitRandom:
		return alloc.RandomSplit(w.fs, budget, r)
	}
	res := alloc.ConcaveWith(&w.allocSc, w.dst, w.fs, budget)
	w.dst = res.Alloc
	return res
}

// splitAssignment places groups[j] on server j and splits each server's
// capacity C by rule.
func splitAssignment(in *Instance, groups [][]int, rule SplitRule, r *rng.Rand) Assignment {
	out := NewAssignment(in.N())
	for j, group := range groups {
		for _, i := range group {
			out.Server[i] = j
		}
	}
	w := GetWorkspace()
	defer PutWorkspace(w)
	w.split(in.Threads, groups, w.uniformCaps(in.M, in.C), rule, r, out.Alloc)
	return out
}
