// Command aaonline simulates the dynamic AA setting (§VIII future
// work): random thread churn (arrivals, departures, utility drift) on a
// homogeneous cluster, handled by three rebalancing policies — full
// re-solve on every event, never-migrate incremental repair, and a
// hybrid that rebuilds when measured quality drops below a threshold of
// the super-optimal bound. It prices each policy's migrations at a sweep
// of per-migration costs and prints the net value (utility integral
// minus migration costs) per policy.
//
// Usage:
//
//	aaonline [-m 4] [-c 100] [-events 300] [-seed 1]
//	         [-threshold 0.828] [-costs 0,1,5,20,100,500]
//	         [-workers 0] [-timeout 0] [-csv dir] [-check]
//	         [-metrics-addr host:port] [-trace-out file.jsonl]
//
// The per-policy simulations fan out across a solver pool with -workers
// goroutines (0 = GOMAXPROCS); the tables are identical for every
// worker count. A migration's cost does not change what a policy does,
// so one simulation per policy prices every cost in the sweep. -timeout
// bounds the whole run. -csv writes both tables as CSV files into the
// given directory. -metrics-addr serves live /metrics and /debug/pprof
// while the simulation runs; -trace-out appends solver-stage span
// events as JSONL.
// -check (or AA_CHECK=1) runs the cap-aware feasibility invariants of
// internal/check on the live state after every event, failing the run
// on the first violation and printing a check summary at exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"aa/internal/cliutil"
	"aa/internal/online"
	"aa/internal/rng"
	"aa/internal/solverpool"
	"aa/internal/tableio"
	"aa/internal/utility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "aaonline: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aaonline", flag.ContinueOnError)
	var (
		m         = fs.Int("m", 4, "number of servers")
		c         = fs.Float64("c", 100, "capacity per server")
		events    = fs.Int("events", 300, "number of churn events")
		seed      = fs.Uint64("seed", 1, "random seed")
		threshold = fs.Float64("threshold", 0.828, "hybrid rebuild threshold (fraction of the SO bound)")
		costsFlag = fs.String("costs", "0,1,5,20,100,500", "comma-separated per-migration costs to sweep")
		workers   = fs.Int("workers", 0, "solver pool workers (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "overall deadline for the run (0 = none)")
		csvDir    = fs.String("csv", "", "directory to write the summary and sweep tables as CSV (optional)")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	if *events < 1 {
		return fmt.Errorf("need at least one event")
	}
	shutdown, err := common.Start("aaonline", stderr)
	if err != nil {
		return err
	}
	defer shutdown()

	costs, err := parseCosts(*costsFlag)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := rng.New(*seed)
	timeline := buildTimeline(r, *c, *events)
	horizon := timeline[len(timeline)-1].Time + 1

	policies := []online.Policy{
		online.FullResolve{},
		online.Hybrid{Threshold: *threshold},
		online.Incremental{},
	}

	// One simulation per policy, fanned out across the pool into slots
	// keyed by policy, so the printed tables do not depend on scheduling.
	pool := solverpool.New(solverpool.Options{Workers: *workers})
	defer pool.Close()
	results := make([]online.Result, len(policies))
	err = pool.ForEach(ctx, len(policies), func(_ context.Context, pi int) error {
		var err error
		results[pi], err = online.Simulate(*m, *c, timeline, policies[pi], horizon)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%d events over %.0f time units, m=%d, C=%g\n\n", *events, horizon, *m, *c)
	base := tableio.New("policy summary (migration cost 0)",
		"policy", "utility-integral", "migrations")
	for pi, p := range policies {
		res := results[pi]
		base.AddRow(p.Name(),
			fmt.Sprintf("%.1f", res.UtilityIntegral),
			fmt.Sprintf("%d", res.Migrations))
	}
	if err := base.WriteASCII(stdout); err != nil {
		return err
	}

	headers := []string{"cost"}
	for _, p := range policies {
		headers = append(headers, p.Name())
	}
	sweep := tableio.New("\nnet value = utility − cost × migrations", headers...)
	for _, cost := range costs {
		cells := []string{tableio.FormatFloat(cost, 1)}
		for _, res := range results {
			// float64() rounds the product first, so no platform fuses
			// the multiply into the subtraction.
			cells = append(cells, fmt.Sprintf("%.1f", res.UtilityIntegral-float64(float64(res.Migrations)*cost)))
		}
		sweep.AddRow(cells...)
	}
	if err := sweep.WriteASCII(stdout); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := writeCSV(*csvDir, "policy-summary", base); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "net-value-sweep", sweep); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes one table into dir/name.csv, propagating Close errors
// the same way aabench does: the CSV is the artifact, and a failed
// flush must not be dropped silently.
func writeCSV(dir, name string, tbl *tableio.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := tbl.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildTimeline mirrors the churn generator used by the online tests.
func buildTimeline(r *rng.Rand, c float64, events int) []online.Event {
	var out []online.Event
	nextID := 0
	var active []int
	t := 0.0
	for len(out) < events {
		t += r.Uniform(0.5, 3)
		switch {
		case len(active) < 4 || r.Float64() < 0.4:
			out = append(out, online.Event{
				Time: t, Kind: online.Arrive, ID: nextID, Util: randomUtility(r, c)})
			active = append(active, nextID)
			nextID++
		case r.Float64() < 0.5:
			k := r.Intn(len(active))
			out = append(out, online.Event{Time: t, Kind: online.Depart, ID: active[k]})
			active = append(active[:k], active[k+1:]...)
		default:
			k := r.Intn(len(active))
			out = append(out, online.Event{
				Time: t, Kind: online.Drift, ID: active[k], Util: randomUtility(r, c)})
		}
	}
	return out
}

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

func parseCosts(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad cost %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no costs given")
	}
	return out, nil
}
