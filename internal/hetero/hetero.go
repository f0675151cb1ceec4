// Package hetero extends AA to heterogeneous servers — the first item on
// the paper's future-work list (§VIII): "we would like to extend our
// algorithm to accommodate heterogeneous servers with different
// capacities".
//
// The super-optimal relaxation generalizes directly (pool Σ C_j with
// per-thread cap max_j C_j), and Algorithm 2's structure — serve threads
// in order of linearized utility from the server with the most remaining
// resource — carries over unchanged, so this package runs core's
// Algorithm 2 with each server starting at its own capacity. The paper's
// approximation proof does not carry over (Lemmas V.5–V.8 use capacity
// homogeneity), so the guarantee here is empirical; the tests calibrate
// it against exact solutions on small instances. With equal capacities
// the algorithm is the homogeneous Algorithm 2.
package hetero

import (
	"fmt"
	"math"

	"aa/internal/core"
	"aa/internal/utility"
)

// Instance is an AA problem with per-server capacities.
type Instance struct {
	Caps    []float64 // capacity of each server, all > 0
	Threads []utility.Func
}

// N returns the number of threads.
func (in *Instance) N() int { return len(in.Threads) }

// M returns the number of servers.
func (in *Instance) M() int { return len(in.Caps) }

// MaxCap returns the largest server capacity.
func (in *Instance) MaxCap() float64 {
	c := 0.0
	for _, v := range in.Caps {
		if v > c {
			c = v
		}
	}
	return c
}

// TotalCap returns Σ C_j.
func (in *Instance) TotalCap() float64 {
	s := 0.0
	for _, v := range in.Caps {
		s += v
	}
	return s
}

// Validate checks the instance is well formed.
func (in *Instance) Validate() error {
	if len(in.Caps) == 0 {
		return fmt.Errorf("hetero: no servers")
	}
	for j, c := range in.Caps {
		if !(c > 0) {
			return fmt.Errorf("hetero: server %d capacity %v", j, c)
		}
	}
	if len(in.Threads) == 0 {
		return fmt.Errorf("hetero: no threads")
	}
	for i, f := range in.Threads {
		if f == nil {
			return fmt.Errorf("hetero: thread %d has nil utility", i)
		}
	}
	return nil
}

// Assignment mirrors core.Assignment for heterogeneous instances.
type Assignment struct {
	Server []int
	Alloc  []float64
}

// Utility returns Σ f_i(Alloc[i]).
func (a Assignment) Utility(in *Instance) float64 {
	total := 0.0
	for i, f := range in.Threads {
		total += f.Value(a.Alloc[i])
	}
	return total
}

// Validate checks feasibility against the per-server capacities.
func (a Assignment) Validate(in *Instance, tol float64) error {
	n := in.N()
	if len(a.Server) != n || len(a.Alloc) != n {
		return fmt.Errorf("hetero: assignment covers %d/%d threads", len(a.Server), n)
	}
	loads := make([]float64, in.M())
	for i := 0; i < n; i++ {
		s := a.Server[i]
		if s < 0 || s >= in.M() {
			return fmt.Errorf("hetero: thread %d on invalid server %d", i, s)
		}
		if a.Alloc[i] < -tol {
			return fmt.Errorf("hetero: thread %d negative allocation", i)
		}
		loads[s] += a.Alloc[i]
	}
	for j, load := range loads {
		if load > in.Caps[j]+tol*(1+in.Caps[j]) {
			return fmt.Errorf("hetero: server %d overloaded: %v > %v", j, load, in.Caps[j])
		}
	}
	return nil
}

// SuperOptimal computes the heterogeneous relaxation: allocate the
// pooled capacity Σ C_j with per-thread cap max_j C_j. Its total is an
// upper bound on any feasible assignment's utility. It runs the whole
// solve and keeps the bound; Workspace.Assign returns both.
func SuperOptimal(in *Instance) core.SuperOpt {
	var w Workspace
	var a Assignment
	return w.assign(in, &a)
}

// Assign generalizes Algorithm 2: sort threads by linearized utility
// f_i(ĉ_i) nonincreasing, re-sort the tail (beyond the m-th) by ramp
// slope, then serve each thread min(ĉ_i, residual) from the server with
// the most remaining resource. Series callers should hold a Workspace
// and call its method instead.
func Assign(in *Instance) Assignment {
	var w Workspace
	var out Assignment
	w.Assign(in, &out)
	return out
}

// AssignRoundRobin is the heterogeneous analogue of UU: threads go round
// robin over servers and each server's capacity is split equally — the
// naive practice that ignores both utilities and capacity skew.
func AssignRoundRobin(in *Instance) Assignment {
	n, m := in.N(), in.M()
	out := Assignment{Server: make([]int, n), Alloc: make([]float64, n)}
	for i := range out.Server {
		out.Server[i] = i % m
	}
	core.Split(in.Threads, core.Groups(out.Server, m), in.Caps, core.SplitEqual, nil, out.Alloc)
	return out
}

// AssignProportional spreads threads over servers proportionally to
// capacity (each thread goes to the server with the most remaining
// per-thread headroom), then splits each server optimally among its
// threads. A stronger capacity-aware baseline than round robin.
func AssignProportional(in *Instance) Assignment {
	n, m := in.N(), in.M()
	out := Assignment{Server: make([]int, n), Alloc: make([]float64, n)}
	headroom := append([]float64(nil), in.Caps...)
	counts := make([]int, m)
	for i := 0; i < n; i++ {
		best := 0
		for j := 1; j < m; j++ {
			if headroom[j]/float64(counts[j]+1) > headroom[best]/float64(counts[best]+1) {
				best = j
			}
		}
		out.Server[i] = best
		counts[best]++
	}
	core.Split(in.Threads, core.Groups(out.Server, m), in.Caps, core.SplitConcave, nil, out.Alloc)
	return out
}

// Exhaustive finds the optimal heterogeneous assignment by enumerating
// all m^n thread→server maps (no server symmetry to exploit when
// capacities differ) and solving each server's concave allocation.
// Limited to tiny instances.
func Exhaustive(in *Instance) (Assignment, error) {
	n, m := in.N(), in.M()
	space := 1
	for i := 0; i < n; i++ {
		if space > core.ExactLimit/m {
			return Assignment{}, fmt.Errorf("hetero: m^n search space too large")
		}
		space *= m
	}
	servers := make([]int, n)
	best := Assignment{Server: make([]int, n), Alloc: make([]float64, n)}
	bestUtil := math.Inf(-1)
	var recurse func(i int)
	recurse = func(i int) {
		if i == n {
			util, allocs := evaluate(in, servers)
			if util > bestUtil {
				bestUtil = util
				copy(best.Server, servers)
				copy(best.Alloc, allocs)
			}
			return
		}
		for j := 0; j < m; j++ {
			servers[i] = j
			recurse(i + 1)
		}
	}
	recurse(0)
	return best, nil
}

// evaluate is the optimal utility of a fixed thread→server map, and
// the allocation that attains it.
func evaluate(in *Instance, servers []int) (float64, []float64) {
	allocs := make([]float64, len(servers))
	return core.Split(in.Threads, core.Groups(servers, in.M()), in.Caps, core.SplitConcave, nil, allocs), allocs
}
