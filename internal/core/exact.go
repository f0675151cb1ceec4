package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrNodeLimit is wrapped by BranchAndBound's error when the search
// outgrows its node budget: the caller's own limit, not a solver fault.
var ErrNodeLimit = errors.New("core: branch-and-bound node limit")

// ExactLimit caps the search space of Exhaustive; beyond it the solver
// refuses rather than burning unbounded CPU (the problem is NP-hard,
// Theorem IV.1).
const ExactLimit = 4_000_000

// Exhaustive finds an optimal assignment by enumerating every partition
// of threads into servers (with server-symmetry breaking, since servers
// are homogeneous) and solving the per-server concave allocation exactly
// for each. It errors out if the symmetric search space m^n/m! would
// exceed ExactLimit. Intended for tests and for calibrating the
// approximation algorithms on small instances.
func Exhaustive(in *Instance) (Assignment, error) {
	n, m := in.N(), in.M
	if space := symmetricSpace(n, m); space > ExactLimit {
		return Assignment{}, fmt.Errorf("core: exhaustive search space ~%d exceeds limit %d", space, ExactLimit)
	}
	w := GetWorkspace()
	defer PutWorkspace(w)
	servers := make([]int, n)
	allocs := make([]float64, n)
	best := NewAssignment(n)
	bestUtil := math.Inf(-1)

	var recurse func(i, maxUsed int)
	recurse = func(i, maxUsed int) {
		if i == n {
			util := w.evaluatePartition(in, servers, allocs)
			if util > bestUtil {
				bestUtil = util
				copy(best.Server, servers)
				copy(best.Alloc, allocs)
			}
			return
		}
		// Symmetry breaking: thread i may open at most one new server.
		limit := maxUsed + 1
		if limit >= m {
			limit = m - 1
		}
		for j := 0; j <= limit; j++ {
			servers[i] = j
			next := maxUsed
			if j > maxUsed {
				next = j
			}
			recurse(i+1, next)
		}
	}
	recurse(0, -1)
	return best, nil
}

// symmetricSpace estimates the number of symmetry-broken assignments
// (restricted-growth strings), capped to avoid overflow.
func symmetricSpace(n, m int) int {
	space := 1
	used := 0
	for i := 0; i < n; i++ {
		branch := used + 1
		if branch > m {
			branch = m
		}
		if space > ExactLimit/branch+1 {
			return ExactLimit + 1
		}
		space *= branch
		if used < m {
			used++
		}
	}
	return space
}

// evaluatePartition computes the optimal total utility of a fixed
// thread→server map by solving each server's concave allocation, and
// writes the allocation that attains it into allocs.
func (w *Workspace) evaluatePartition(in *Instance, servers []int, allocs []float64) float64 {
	return w.split(in.Threads, Groups(servers, in.M), w.uniformCaps(in.M, in.C), SplitConcave, nil, allocs)
}

// BranchAndBound finds an optimal assignment by depth-first search with
// an admissible pruning bound. Threads are explored in nonincreasing
// super-optimal allocation order ("big rocks first"). The bound for a
// partial assignment is
//
//	Σ_j SO(group_j, C)  +  SO(unassigned, m·C)
//
// both terms of which only over-estimate the achievable utility, so
// pruning is safe. maxNodes limits the search (0 means ExactLimit);
// exceeding it returns an error wrapping ErrNodeLimit. The search checks
// ctx every 1024 nodes and returns ctx.Err() once it is done, so a
// deadline bounds the wall time of a large search, not just its node
// count.
func BranchAndBound(ctx context.Context, in *Instance, maxNodes int) (Assignment, error) {
	if maxNodes <= 0 {
		maxNodes = ExactLimit
	}
	n, m := in.N(), in.M
	w := GetWorkspace()
	defer PutWorkspace(w)

	// Explore large consumers first: deeper pruning near the root.
	so := SuperOptimal(in)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for a := 1; a < n; a++ { // insertion sort by ĉ desc (n is small here)
		for b := a; b > 0 && so.Alloc[order[b]] > so.Alloc[order[b-1]]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}

	groups := make([][]int, m)
	servers := make([]int, n)
	allocs := make([]float64, n)
	best := NewAssignment(n)
	bestUtil := math.Inf(-1)
	nodes := 0

	// Seed the incumbent with Algorithm 2 so pruning bites immediately.
	seed := Assign2(in)
	bestUtil = seed.Utility(in)
	copy(best.Server, seed.Server)
	copy(best.Alloc, seed.Alloc)

	var recurse func(depth int) error
	recurse = func(depth int) error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("%w: exceeded %d nodes", ErrNodeLimit, maxNodes)
		}
		if nodes&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if depth == n {
			for j, g := range groups {
				for _, i := range g {
					servers[i] = j
				}
			}
			util := w.evaluatePartition(in, servers, allocs)
			if util > bestUtil {
				bestUtil = util
				copy(best.Server, servers)
				copy(best.Alloc, allocs)
			}
			return nil
		}
		if w.bound(in, groups, order[depth:]) <= bestUtil+1e-9 {
			return nil
		}
		i := order[depth]
		openedEmpty := false
		for j := 0; j < m; j++ {
			if len(groups[j]) == 0 {
				if openedEmpty {
					continue // symmetric to an already-tried empty server
				}
				openedEmpty = true
			}
			groups[j] = append(groups[j], i)
			if err := recurse(depth + 1); err != nil {
				return err
			}
			groups[j] = groups[j][:len(groups[j])-1]
		}
		return nil
	}
	err := recurse(0)
	if err != nil {
		return Assignment{}, err
	}
	return best, nil
}

// bound returns the admissible upper bound for completing a partial
// assignment: each existing group solved alone on a full server, plus the
// unassigned threads pooled on the whole cluster.
func (w *Workspace) bound(in *Instance, groups [][]int, unassigned []int) float64 {
	total := w.split(in.Threads, groups, w.uniformCaps(in.M, in.C), SplitConcave, nil, nil)
	if len(unassigned) > 0 {
		total += w.SplitGroup(in.Threads, unassigned, in.C, float64(in.M)*in.C, SplitConcave, nil).Total
	}
	return total
}
