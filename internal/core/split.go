package core

import (
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
// the total utility, summed server by server.
func Split(threads []utility.Func, groups [][]int, caps []float64, rule SplitRule, r *rng.Rand, allocs []float64) float64 {
	size := 0
	for _, group := range groups {
		size += len(group)
	}
	// One backing array for every group's wrappers; fs holds pointers
	// into it, so no wrapper is boxed on its own.
	capped := make([]cappedFunc, size)
	fs := make([]utility.Func, size)
	total := 0.0
	for j, group := range groups {
		if len(group) == 0 {
			continue
		}
		gfs := fs[:len(group)]
		for k, i := range group {
			capped[k] = cappedFunc{f: threads[i], c: min(threads[i].Cap(), caps[j])}
			gfs[k] = &capped[k]
		}
		capped, fs = capped[len(group):], fs[len(group):]
		var res alloc.Result
		switch rule {
		case SplitEqual:
			res = alloc.EqualSplit(gfs, caps[j])
		case SplitRandom:
			res = alloc.RandomSplit(gfs, caps[j], r)
		default:
			res = alloc.Concave(gfs, caps[j])
		}
		total += res.Total
		if allocs != nil {
			for k, i := range group {
				allocs[i] = res.Alloc[k]
			}
		}
	}
	return total
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
	Split(in.Threads, groups, in.serverCaps(), rule, r, out.Alloc)
	return out
}

// serverCaps returns every server's capacity: m copies of C.
func (in *Instance) serverCaps() []float64 {
	caps := make([]float64, in.M)
	for j := range caps {
		caps[j] = in.C
	}
	return caps
}
