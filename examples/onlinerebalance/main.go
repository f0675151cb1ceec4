// Online rebalancing example — the paper's future-work §VIII scenario.
//
// Threads arrive, depart and get re-measured (their utility curves
// drift) over a simulated day. Three policies react to each event:
//
//   - full-resolve: re-run Algorithm 2 every time (best utility, most
//     thread migrations),
//   - incremental: never migrate, only re-divide the affected server,
//   - hybrid: incremental until measured utility falls below α·F̂, then
//     rebuild (α = the paper's 0.828 guarantee is the natural trigger).
//
// The example sweeps the per-migration cost and shows the crossover:
// cheap migrations favor always re-solving; expensive ones favor the
// hybrid and eventually the pure incremental policy.
package main

import (
	"fmt"

	"aa/internal/online"
	"aa/internal/rng"
	"aa/internal/utility"
)

func randomUtility(r *rng.Rand, c float64) utility.Func {
	switch r.Intn(3) {
	case 0:
		return utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, c/4), C: c}
	case 1:
		return utility.SatExp{Scale: r.Uniform(0.5, 5), K: r.Uniform(c/30, c/3), C: c}
	default:
		return utility.Power{Scale: r.Uniform(0.3, 2), Beta: r.Uniform(0.3, 0.9), C: c}
	}
}

func main() {
	const (
		m       = 4
		c       = 100.0
		nEvents = 300
	)
	r := rng.New(2025)

	// Build a day of churn: arrivals, departures, drifts.
	var events []online.Event
	nextID := 0
	var active []int
	t := 0.0
	for len(events) < nEvents {
		t += r.Uniform(0.5, 3)
		switch {
		case len(active) < 6 || r.Float64() < 0.4:
			events = append(events, online.Event{
				Time: t, Kind: online.Arrive, ID: nextID, Util: randomUtility(r, c)})
			active = append(active, nextID)
			nextID++
		case r.Float64() < 0.5:
			k := r.Intn(len(active))
			events = append(events, online.Event{Time: t, Kind: online.Depart, ID: active[k]})
			active = append(active[:k], active[k+1:]...)
		default:
			k := r.Intn(len(active))
			events = append(events, online.Event{
				Time: t, Kind: online.Drift, ID: active[k], Util: randomUtility(r, c)})
		}
	}
	horizon := events[len(events)-1].Time + 1

	policies := []online.Policy{
		online.FullResolve{},
		online.Hybrid{Threshold: 0.828},
		online.Incremental{},
	}

	fmt.Printf("%d events over %.0f time units on %d servers (C=%.0f)\n\n",
		nEvents, horizon, m, c)
	// A migration's cost does not change what a policy does, so one run
	// per policy prices every cost below.
	results := make([]online.Result, len(policies))
	fmt.Printf("%-14s %12s %11s\n", "policy", "utility-int", "migrations")
	for i, p := range policies {
		res, err := online.Simulate(m, c, events, p, horizon)
		if err != nil {
			panic(err)
		}
		results[i] = res
		fmt.Printf("%-14s %12.1f %11d\n", p.Name(), res.UtilityIntegral, res.Migrations)
	}

	fmt.Printf("\nnet value (utility − cost·migrations) as migration cost grows:\n")
	fmt.Printf("%10s %14s %14s %14s\n", "cost", "full-resolve", "hybrid(0.83)", "incremental")
	for _, cost := range []float64{0, 1, 5, 20, 100, 500} {
		fmt.Printf("%10.0f", cost)
		for _, res := range results {
			// float64() rounds the product first, so no platform fuses
			// the multiply into the subtraction.
			fmt.Printf(" %14.1f", res.UtilityIntegral-float64(float64(res.Migrations)*cost))
		}
		fmt.Println()
	}
	fmt.Println("\nfull-resolve wins when moves are free; as each migration gets more")
	fmt.Println("expensive the hybrid, then the never-migrate policy, take over.")
}
