package core

import (
	"math"

	"aa/internal/rng"
)

// The four heuristics the paper compares against in §VII. Each combines
// an assignment rule (Uniform = round robin, Random = uniform random
// server) with an allocation rule (Uniform = equal split of C among the
// server's threads, Random = independent uniform shares scaled into C,
// alloc.RandomSplit).

// AssignUU is uniform assignment + uniform allocation.
func AssignUU(in *Instance) Assignment {
	return splitAssignment(in, Groups(roundRobin(in), in.M), SplitEqual, nil)
}

// AssignUR is uniform assignment + random allocation.
func AssignUR(in *Instance, r *rng.Rand) Assignment {
	return splitAssignment(in, Groups(roundRobin(in), in.M), SplitRandom, r)
}

// AssignRU is random assignment + uniform allocation.
func AssignRU(in *Instance, r *rng.Rand) Assignment {
	return splitAssignment(in, Groups(randomServers(in, r), in.M), SplitEqual, nil)
}

// AssignRR is random assignment + random allocation.
func AssignRR(in *Instance, r *rng.Rand) Assignment {
	return splitAssignment(in, Groups(randomServers(in, r), in.M), SplitRandom, r)
}

// roundRobin maps thread i to server i mod m.
func roundRobin(in *Instance) []int {
	servers := make([]int, in.N())
	for i := range servers {
		servers[i] = i % in.M
	}
	return servers
}

// randomServers maps each thread to an independently uniform server.
func randomServers(in *Instance, r *rng.Rand) []int {
	servers := make([]int, in.N())
	for i := range servers {
		servers[i] = r.Intn(in.M)
	}
	return servers
}

// AssignFixedRequest is the strawman from the paper's introduction:
// each thread demands a fixed amount requests[i]; threads are placed
// first-fit in the given order and receive exactly their request if it
// fits on some server, otherwise they are parked (zero allocation) on the
// emptiest server. No adjustment to co-located threads is ever made.
func AssignFixedRequest(in *Instance, requests []float64) Assignment {
	n := in.N()
	out := NewAssignment(n)
	residual := make([]float64, in.M)
	for j := range residual {
		residual[j] = in.C
	}
	for i := 0; i < n; i++ {
		req := math.Min(requests[i], in.C)
		placed := false
		for j := 0; j < in.M; j++ {
			if residual[j] >= req {
				out.Server[i] = j
				out.Alloc[i] = req
				residual[j] -= req
				placed = true
				break
			}
		}
		if !placed {
			// Park with zero resource on the emptiest server.
			best := 0
			for j := 1; j < in.M; j++ {
				if residual[j] > residual[best] {
					best = j
				}
			}
			out.Server[i] = best
			out.Alloc[i] = 0
		}
	}
	return out
}
