package cachesim

import (
	"context"
	"fmt"
	"math"

	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/rng"
)

// Solve routes an AA solve through the shared engine pipeline, so
// cache-partition solves pick up the pooled workspace, telemetry and
// process-wide invariant checks.
func Solve(in *core.Instance) (core.Assignment, error) {
	var resp engine.Response
	req := engine.Request{Instance: in}
	if err := engine.Default().SolveInto(context.Background(), &req, &resp); err != nil {
		return core.Assignment{}, err
	}
	return resp.Assignment, nil
}

// Adaptive is the online-measurement controller from the paper's future
// work (§VIII: "integrate online performance measurements into our
// algorithms to produce dynamically optimal assignments"). Instead of
// profiling every thread at every way count offline, it learns miss-rate
// curves from the allocations that actually run:
//
//   - each epoch, every thread runs under the current partition and the
//     controller records an EWMA hit-rate sample at its current way
//     count;
//   - unknown parts of each curve are interpolated between samples and
//     extrapolated optimistically (continuing the last observed slope,
//     clamped at hit rate 1), so the solver keeps probing threads whose
//     curves still look like they are rising — exploration emerges from
//     optimism rather than explicit randomization;
//   - the AA solver re-runs every epoch on the estimated utilities.
//
// Phase changes (a thread switching behaviour) are absorbed by the EWMA.
type Adaptive struct {
	Cfg     Config
	Sockets int
	Model   ThroughputModel
	// Alpha is the EWMA weight of new samples in (0, 1]; 0 defaults to 0.5.
	Alpha float64
	// Forget expires samples not refreshed for this many epochs, letting
	// the optimistic prior (and hence exploration) return — the
	// mechanism that re-probes starved threads after a phase change.
	// 0 defaults to 5.
	Forget int
	// Explore is the per-socket probability of a one-way probe each
	// epoch: one way moves from the socket's richest thread to another
	// thread on the socket, sampling interior allocations the solver's
	// corner solutions would never visit. 0 defaults to 0.75; set
	// negative to disable.
	Explore float64

	est   []map[int]sample // per-thread: ways -> smoothed hit rate
	epoch int
}

// sample is one smoothed measurement and when it was last refreshed.
type sample struct {
	value float64
	seen  int // epoch of last refresh
}

// NewAdaptive creates a controller for n threads.
func NewAdaptive(cfg Config, sockets int, model ThroughputModel, n int) *Adaptive {
	a := &Adaptive{Cfg: cfg, Sockets: sockets, Model: model, Alpha: 0.5, Forget: 5, Explore: 0.75}
	a.est = make([]map[int]sample, n)
	for i := range a.est {
		a.est[i] = map[int]sample{}
	}
	return a
}

// observe folds a measured hit rate at a way count into the estimate.
// Zero-way measurements are discarded: the hit rate at 0 ways is 0 by
// construction and carries no information about the thread.
func (a *Adaptive) observe(thread, ways int, hitRate float64) {
	if ways == 0 {
		return
	}
	alpha := a.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if old, ok := a.est[thread][ways]; ok {
		a.est[thread][ways] = sample{value: (1-alpha)*old.value + alpha*hitRate, seen: a.epoch}
	} else {
		a.est[thread][ways] = sample{value: hitRate, seen: a.epoch}
	}
}

// freshSamples returns the unexpired samples of a thread.
func (a *Adaptive) freshSamples(thread int) map[int]float64 {
	forget := a.Forget
	if forget <= 0 {
		forget = 5
	}
	out := map[int]float64{}
	for w, s := range a.est[thread] {
		if a.epoch-s.seen < forget {
			out[w] = s.value
		}
	}
	return out
}

// estimatedProfile reconstructs a full hit-rate curve from the sparse
// samples of one thread: linear interpolation between known way counts,
// optimistic linear extrapolation beyond the largest known sample, and
// monotone repair. With no samples at all the curve is the pure optimist
// (linearly rising to 1), which forces an initial measurement.
func (a *Adaptive) estimatedProfile(thread int) Profile {
	w := a.Cfg.Ways
	curve := make([]float64, w+1)
	known := a.freshSamples(thread)
	if len(known) == 0 {
		for x := 0; x <= w; x++ {
			curve[x] = float64(x) / float64(w)
		}
		return Profile{HitRate: curve}
	}
	// Collect known points in way order; hit rate at 0 ways is 0 by
	// construction of the cache model.
	xs := []int{0}
	ys := []float64{0}
	for x := 1; x <= w; x++ {
		if v, ok := known[x]; ok {
			xs = append(xs, x)
			ys = append(ys, v)
		}
	}
	// Interpolate between knowns.
	for k := 0; k+1 < len(xs); k++ {
		x0, x1 := xs[k], xs[k+1]
		for x := x0; x <= x1; x++ {
			t := 0.0
			if x1 > x0 {
				t = float64(x-x0) / float64(x1-x0)
			}
			curve[x] = ys[k] + t*(ys[k+1]-ys[k])
		}
	}
	// Optimistic extrapolation past the last known sample: continue the
	// last segment's slope (or a default climb if only one sample).
	last := xs[len(xs)-1]
	slope := 0.0
	if len(xs) >= 2 {
		prev := xs[len(xs)-2]
		slope = (ys[len(xs)-1] - ys[len(xs)-2]) / float64(last-prev)
		if slope < 0 {
			slope = 0
		}
	} else {
		slope = (1 - ys[len(xs)-1]) / float64(w-last+1)
	}
	for x := last + 1; x <= w; x++ {
		curve[x] = math.Min(1, curve[x-1]+slope)
	}
	// Monotone repair (EWMA noise can locally invert the order).
	for x := 1; x <= w; x++ {
		if curve[x] < curve[x-1] {
			curve[x] = curve[x-1]
		}
	}
	return Profile{HitRate: curve}
}

// EpochResult reports one adaptive epoch.
type EpochResult struct {
	Ways       []int
	Throughput float64 // measured aggregate this epoch
}

// Epoch runs one epoch: solve AA on the current estimates, run every
// thread for accesses under the resulting partition (generating fresh
// traces from gens), record measurements, and report the measured
// aggregate throughput.
func (a *Adaptive) Epoch(gens []TraceGen, accesses int, r *rng.Rand) (EpochResult, error) {
	n := len(gens)
	if n != len(a.est) {
		return EpochResult{}, fmt.Errorf("cachesim: %d generators for %d threads", n, len(a.est))
	}
	// Build utilities from the estimated profiles.
	in := &core.Instance{M: a.Sockets, C: float64(a.Cfg.Ways)}
	profiles := make([]Profile, n)
	for i := 0; i < n; i++ {
		profiles[i] = a.estimatedProfile(i)
		f, err := profiles[i].Utility(a.Model)
		if err != nil {
			return EpochResult{}, fmt.Errorf("cachesim: thread %d estimate: %w", i, err)
		}
		in.Threads = append(in.Threads, f)
	}
	sol, err := Solve(in)
	if err != nil {
		return EpochResult{}, fmt.Errorf("cachesim: epoch solve: %w", err)
	}
	ways := QuantizeWays(in, sol, a.Cfg.Ways)
	a.explore(sol.Server, ways, r.Split(1<<32))

	res := EpochResult{Ways: ways}
	for i := 0; i < n; i++ {
		trace := gens[i].Generate(accesses, r.Split(uint64(i)))
		hits, total, err := SimulateHits(a.Cfg, ways[i], trace)
		if err != nil {
			return EpochResult{}, fmt.Errorf("cachesim: epoch thread %d: %w", i, err)
		}
		hr := float64(hits) / float64(total)
		a.observe(i, ways[i], hr)
		res.Throughput += a.Model.Throughput(hr)
	}
	a.epoch++
	return res, nil
}

// explore perturbs the quantized allocation in place: per socket, with
// probability Explore, one way moves from the richest thread to a
// uniformly random other thread on the socket.
func (a *Adaptive) explore(servers []int, ways []int, r *rng.Rand) {
	p := a.Explore
	if p == 0 {
		p = 0.75
	}
	if p < 0 {
		return
	}
	for j := 0; j < a.Sockets; j++ {
		if r.Float64() >= p {
			continue
		}
		var members []int
		for i, s := range servers {
			if s == j {
				members = append(members, i)
			}
		}
		if len(members) < 2 {
			continue
		}
		donor := members[0]
		for _, i := range members[1:] {
			if ways[i] > ways[donor] {
				donor = i
			}
		}
		if ways[donor] == 0 {
			continue
		}
		receiver := donor
		for receiver == donor {
			receiver = members[r.Intn(len(members))]
		}
		ways[donor]--
		ways[receiver]++
	}
}

// Run executes epochs consecutive epochs and returns their results.
func (a *Adaptive) Run(gens []TraceGen, epochs, accesses int, r *rng.Rand) ([]EpochResult, error) {
	out := make([]EpochResult, 0, epochs)
	for e := 0; e < epochs; e++ {
		res, err := a.Epoch(gens, accesses, r.Split(uint64(e)))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// OfflineReference computes the measured throughput of the full offline
// pipeline (complete profiling + AA + DP refinement) on one trace draw —
// the target the adaptive controller should approach.
func OfflineReference(cfg Config, sockets int, gens []TraceGen, model ThroughputModel, accesses int, r *rng.Rand) (float64, error) {
	workloads := GenerateWorkloads(gens, accesses, model, r)
	in, profiles, err := BuildInstance(cfg, sockets, workloads)
	if err != nil {
		return 0, err
	}
	sol, err := Solve(in)
	if err != nil {
		return 0, err
	}
	ways := OptimizeWays(cfg, sockets, workloads, profiles, sol)
	res, err := CoRunWays(cfg, sockets, workloads, sol, ways)
	if err != nil {
		return 0, err
	}
	return res.Total, nil
}
