// Package core implements the AA (assign and allocate) problem from the
// paper "Utility Maximizing Thread Assignment and Resource Allocation"
// (IPDPS'16): simultaneously assign n threads to m homogeneous servers of
// capacity C and allocate each server's resource among its threads to
// maximize total utility, where each thread has a nonnegative,
// nondecreasing, concave utility function.
//
// The package provides the paper's two approximation algorithms
// (Assign1, Assign2, both with ratio α = 2(√2−1) ≈ 0.828), the
// super-optimal upper bound (SuperOptimal), the linearization they rely
// on, the four comparison heuristics UU/UR/RU/RR, a fixed-request
// first-fit baseline, exact solvers for small instances, and the
// PARTITION reduction from the NP-hardness proof.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"aa/internal/utility"
)

// Alpha is the approximation ratio 2(√2−1) ≈ 0.8284 guaranteed by
// Algorithms 1 and 2 (Theorems V.16 and VI.1).
var Alpha = 2 * (math.Sqrt2 - 1)

// Instance is an AA problem: M homogeneous servers with capacity C each,
// and one utility function per thread.
type Instance struct {
	M       int            // number of servers
	C       float64        // resource capacity per server
	Threads []utility.Func // utility function of each thread
}

// N returns the number of threads.
func (in *Instance) N() int { return len(in.Threads) }

// Validate checks the instance is well formed: at least one server,
// positive capacity, and at least one thread with a non-nil utility.
// It does not re-verify concavity of each utility (see utility.Validate).
func (in *Instance) Validate() error {
	if err := ValidateShape(in.M, in.C, len(in.Threads)); err != nil {
		return err
	}
	for i, f := range in.Threads {
		if f == nil {
			return fmt.Errorf("core: thread %d has nil utility", i)
		}
	}
	return nil
}

// ValidateShape checks the instance-level rules of Validate — m >= 1
// servers, capacity c > 0, n >= 1 threads — for callers that know an
// instance's shape without holding its utilities.
func ValidateShape(m int, c float64, n int) error {
	if m <= 0 {
		return fmt.Errorf("core: instance has %d servers, need >= 1", m)
	}
	if !(c > 0) {
		return fmt.Errorf("core: server capacity %v, need > 0", c)
	}
	if n == 0 {
		return errors.New("core: instance has no threads")
	}
	return nil
}

// Assignment is a solution to an AA instance: Server[i] is the server
// index thread i is placed on and Alloc[i] the resource it is allocated
// there. Every thread is assigned to some server, possibly with zero
// resource (§III).
type Assignment struct {
	Server []int
	Alloc  []float64
}

// NewAssignment returns an empty assignment for n threads, with every
// thread marked unassigned (server -1, allocation 0).
func NewAssignment(n int) Assignment {
	a := Assignment{Server: make([]int, n), Alloc: make([]float64, n)}
	for i := range a.Server {
		a.Server[i] = -1
	}
	return a
}

// Reset reinitializes the assignment for n threads, reusing the backing
// arrays when they are large enough and otherwise growing them with
// append's amortized headroom — the piece that lets Workspace-based
// solvers rewrite an Assignment every solve without allocating, even
// when every solve adds a thread.
func (a *Assignment) Reset(n int) {
	a.resize(n)
	for i := range a.Server {
		a.Server[i] = -1
	}
	for i := range a.Alloc {
		a.Alloc[i] = 0
	}
}

// resize sets both slices to length n, reusing their capacity, and
// leaves their contents unspecified: for a caller that writes every entry.
func (a *Assignment) resize(n int) {
	a.Server = slices.Grow(a.Server[:0], n)[:n]
	a.Alloc = slices.Grow(a.Alloc[:0], n)[:n]
}

// Utility returns the total utility Σ f_i(Alloc[i]) of the assignment
// under the given instance.
func (a Assignment) Utility(in *Instance) float64 {
	total := 0.0
	for i, f := range in.Threads {
		total += f.Value(a.Alloc[i])
	}
	return total
}

// ServerLoads returns the total allocation on each server.
func (a Assignment) ServerLoads(in *Instance) []float64 {
	loads := make([]float64, in.M)
	for i, s := range a.Server {
		if s >= 0 && s < in.M {
			loads[s] += a.Alloc[i]
		}
	}
	return loads
}

// Validate checks the assignment is feasible for the instance: every
// thread is placed on a valid server with a nonnegative allocation, and
// each server's allocations sum to at most C (within tol).
func (a Assignment) Validate(in *Instance, tol float64) error {
	n := in.N()
	if len(a.Server) != n || len(a.Alloc) != n {
		return fmt.Errorf("core: assignment covers %d/%d threads", len(a.Server), n)
	}
	loads := make([]float64, in.M)
	for i := 0; i < n; i++ {
		s := a.Server[i]
		if s < 0 || s >= in.M {
			return fmt.Errorf("core: thread %d assigned to invalid server %d", i, s)
		}
		if a.Alloc[i] < -tol {
			return fmt.Errorf("core: thread %d has negative allocation %v", i, a.Alloc[i])
		}
		if a.Alloc[i] > in.C+tol {
			return fmt.Errorf("core: thread %d allocated %v > C=%v", i, a.Alloc[i], in.C)
		}
		loads[s] += a.Alloc[i]
	}
	for j, load := range loads {
		if load > in.C+tol*(1+in.C) {
			return fmt.Errorf("core: server %d overloaded: %v > C=%v", j, load, in.C)
		}
	}
	return nil
}
