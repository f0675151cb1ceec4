// Package hosting is the web-hosting-center substrate behind the paper's
// second motivating application (§I): service threads run on a fleet of
// identical hosts and compete for a per-host resource (CPU shares,
// memory, ...). The host operator maximizes revenue, so each service's
// utility is its revenue rate as a concave function of the resource it
// receives (cf. Chase et al., cited by the paper).
//
// The package models services with concave served-rate curves, converts
// a deployment into an AA instance, and provides a slotted queueing
// simulator with Poisson arrivals that measures the revenue an
// assignment actually earns — validating the utility model end to end
// and quantifying AA's advantage over round-robin/equal-share operating
// practice.
package hosting

import (
	"context"
	"fmt"
	"math"

	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Service is one hosted web service.
type Service struct {
	Name    string
	Demand  float64 // offered load, requests/sec
	Revenue float64 // revenue per served request
	Curve   Curve   // served-rate curve
}

// Curve maps a resource allocation to a service's sustainable service
// rate (requests/sec), independent of demand. Implementations must be
// nonnegative, nondecreasing and concave in the allocation.
type Curve interface {
	// Rate returns the sustainable service rate at allocation x.
	Rate(x float64) float64
	// Name identifies the curve family in reports.
	Name() string
}

// LinearCurve models a CPU-bound service: rate = PerUnit·x (each unit of
// resource serves PerUnit requests/sec).
type LinearCurve struct {
	PerUnit float64
}

// Rate implements Curve.
func (c LinearCurve) Rate(x float64) float64 {
	if x < 0 {
		return 0
	}
	return c.PerUnit * x
}

// Name implements Curve.
func (c LinearCurve) Name() string { return "linear" }

// SaturatingCurve models a memory/cache-bound service: rate =
// Max·x/(x+K). Returns diminish as the hot data set fits.
type SaturatingCurve struct {
	Max float64 // asymptotic rate
	K   float64 // half-saturation allocation
}

// Rate implements Curve.
func (c SaturatingCurve) Rate(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return c.Max * x / (x + c.K)
}

// Name implements Curve.
func (c SaturatingCurve) Name() string { return "saturating" }

// Deployment is a fleet of hosts and the services to place on them.
type Deployment struct {
	Hosts    int     // number of identical hosts (AA servers)
	Capacity float64 // resource per host (AA's C)
	Services []Service
}

// Validate checks the deployment is well formed.
func (d *Deployment) Validate() error {
	if d.Hosts < 1 {
		return fmt.Errorf("hosting: %d hosts", d.Hosts)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("hosting: capacity %v", d.Capacity)
	}
	if len(d.Services) == 0 {
		return fmt.Errorf("hosting: no services")
	}
	for i, s := range d.Services {
		if s.Demand < 0 || s.Revenue < 0 || s.Curve == nil {
			return fmt.Errorf("hosting: service %d (%s) malformed", i, s.Name)
		}
	}
	return nil
}

// revenueUtility adapts a service to the AA utility interface: revenue
// rate = Revenue · min(Demand, Curve.Rate(x)). The min of a constant and
// a concave nondecreasing function is concave and nondecreasing.
type revenueUtility struct {
	svc Service
	c   float64
}

// Value returns the revenue rate at allocation x.
func (u revenueUtility) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > u.c {
		x = u.c
	}
	rate := u.svc.Curve.Rate(x)
	if rate > u.svc.Demand {
		rate = u.svc.Demand
	}
	return u.svc.Revenue * rate
}

// Deriv returns the right derivative via a central difference — curves
// are cheap closed forms, and the solver only needs monotone marginals.
func (u revenueUtility) Deriv(x float64) float64 {
	if x >= u.c {
		return 0
	}
	const h = 1e-6
	lo := x - h
	if lo < 0 {
		lo = 0
	}
	hi := x + h
	if hi > u.c {
		hi = u.c
	}
	if hi == lo {
		return 0
	}
	return (u.Value(hi) - u.Value(lo)) / (hi - lo)
}

// Cap returns the host capacity.
func (u revenueUtility) Cap() float64 { return u.c }

// Instance converts the deployment into an AA instance whose total
// utility is the fleet-wide revenue rate.
func (d *Deployment) Instance() (*core.Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	threads := make([]utility.Func, len(d.Services))
	for i, s := range d.Services {
		threads[i] = revenueUtility{svc: s, c: d.Capacity}
	}
	return &core.Instance{M: d.Hosts, C: d.Capacity, Threads: threads}, nil
}

// Solution is a solved deployment: the placement, its modeled revenue
// rate, and the super-optimal upper bound on any placement's revenue.
type Solution struct {
	Assignment core.Assignment
	Revenue    float64 // Σ u_i(alloc_i), $/s under the revenue model
	Bound      float64 // pooled-capacity upper bound on Revenue
}

// Solve places the deployment's services with the paper's Algorithm 2
// on its revenue-rate AA instance, through the shared engine pipeline.
func (d *Deployment) Solve() (Solution, error) {
	in, err := d.Instance()
	if err != nil {
		return Solution{}, err
	}
	var resp engine.Response
	req := engine.Request{Instance: in, Backend: "assign2", WantUtility: true}
	if err := engine.Default().SolveInto(context.Background(), &req, &resp); err != nil {
		return Solution{}, err
	}
	return Solution{Assignment: resp.Assignment, Revenue: resp.Utility, Bound: resp.Bound}, nil
}

// SimResult is the outcome of a queueing simulation.
type SimResult struct {
	Revenue   float64   // total revenue earned
	Served    []float64 // requests served per service
	Dropped   []float64 // requests dropped per service (queue overflow)
	Predicted float64   // utility-model prediction: Σ u_i(alloc_i) · seconds
	// MeanQueue is each service's time-averaged queue length; by
	// Little's law MeanQueue/throughput approximates the mean sojourn
	// time, so under-provisioned services show up here long before they
	// drop requests.
	MeanQueue []float64
}

// MeanLatency returns service i's mean request latency estimate in
// seconds (Little's law: average queue over throughput). Returns +Inf
// for a service that served nothing while queueing.
func (s SimResult) MeanLatency(i int, seconds int) float64 {
	if seconds <= 0 {
		return 0
	}
	throughput := s.Served[i] / float64(seconds)
	if throughput == 0 {
		if s.MeanQueue[i] > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return s.MeanQueue[i] / throughput
}

// Simulate runs a slotted (1-second) queueing simulation of the
// assignment for the given duration: Poisson arrivals per service, each
// service drains at its curve's rate for its allocation, and queues are
// bounded at maxQueue (excess arrivals are dropped). Returns the revenue
// actually earned, which should track the utility model's prediction for
// stationary loads.
func (d *Deployment) Simulate(a core.Assignment, seconds int, maxQueue float64, r *rng.Rand) (SimResult, error) {
	in, err := d.Instance()
	if err != nil {
		return SimResult{}, err
	}
	if err := a.Validate(in, 1e-6); err != nil {
		return SimResult{}, fmt.Errorf("hosting: %w", err)
	}
	n := len(d.Services)
	res := SimResult{
		Served:    make([]float64, n),
		Dropped:   make([]float64, n),
		MeanQueue: make([]float64, n),
	}
	queues := make([]float64, n)
	for t := 0; t < seconds; t++ {
		for i, s := range d.Services {
			arrivals := float64(r.Poisson(s.Demand))
			queues[i] += arrivals
			if queues[i] > maxQueue {
				res.Dropped[i] += queues[i] - maxQueue
				queues[i] = maxQueue
			}
			capacity := s.Curve.Rate(a.Alloc[i])
			served := queues[i]
			if served > capacity {
				served = capacity
			}
			queues[i] -= served
			res.Served[i] += served
			res.Revenue += served * s.Revenue
			res.MeanQueue[i] += queues[i]
		}
	}
	for i := range res.MeanQueue {
		res.MeanQueue[i] /= float64(seconds)
	}
	for i, f := range in.Threads {
		res.Predicted += f.Value(a.Alloc[i]) * float64(seconds)
	}
	return res, nil
}
