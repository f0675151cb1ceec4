// Command aareplay replays datacenter traces through the AA engine
// pipeline at accelerated virtual time and reports how the allocator
// held up: total utility against the super-optimal bound F̂, virtual
// and wall-clock solve latency percentiles, and queue-depth /
// re-solve-count trajectories.
//
// Usage:
//
//	aareplay [-scenario name|file.json] [-trace file.json] [-seed 1]
//	         [-policy full-resolve|incremental|hybrid] [-grid n]
//	         [-out report.json] [-csv trajectory.csv] [-canonical]
//	         [-addr host:port] [-list] [-v] [-check]
//	         [-metrics-addr host:port] [-trace-out file.jsonl]
//	         [-cache memory] [-cache-size 1024] [-cache-ttl 0]
//	         [-cache-warm-k 8]
//
// -scenario names a built-in scenario family (see -list) or a JSON
// scenario file; -trace replays a recorded event trace instead. The
// replay is deterministic: the same scenario and seed produce a
// bit-identical report, except for the "wall" section, which holds
// measured wall-clock timings. -canonical strips that section so the
// output can be byte-compared across runs — the CI determinism gate
// does exactly that (scripts/replay_smoke.sh).
//
// -addr sends every re-solve to a running aaserve instance's /solve
// endpoint instead of the in-process engine (full-resolve policy
// only), replaying the trace against the live service.
//
// -cache installs the solve-result cache in the in-process engine and
// adds a "cache" section (hit / warm-start rates) to the report. Leave
// -cache-ttl at 0 for deterministic reports: with no expiry the cache
// counters are a pure function of the trace, so the section survives
// -canonical. Ignored with -addr (caching then happens server-side).
//
// The JSON report goes to -out ("-" or empty = stdout); -csv
// additionally writes the trajectory as CSV for plotting. A one-line
// summary is printed to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"aa/internal/cliutil"
	"aa/internal/online"
	"aa/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "aareplay: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aareplay", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "diurnal", "built-in scenario name (see -list) or scenario JSON file")
		tracePath = fs.String("trace", "", "replay a recorded trace file instead of a scenario")
		seed      = fs.Uint64("seed", 1, "random seed for trace expansion")
		policy    = fs.String("policy", "", "override the scenario's policy (full-resolve, incremental, hybrid)")
		grid      = fs.Int("grid", 0, "override the trajectory sample count (0 = scenario default)")
		out       = fs.String("out", "", "write the JSON report here ('-' or empty = stdout)")
		csv       = fs.String("csv", "", "also write the trajectory as CSV to this file")
		canonical = fs.Bool("canonical", false, "strip nondeterministic (wall-clock) fields from the report")
		addr      = fs.String("addr", "", "solve via a running aaserve at this address instead of in-process")
		list      = fs.Bool("list", false, "list built-in scenarios and exit")
		verbose   = fs.Bool("v", false, "print the one-line run summary to stderr")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	var cacheFlags cliutil.CacheFlags
	cacheFlags.AddFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	if *list {
		return listScenarios(stdout)
	}
	shutdown, err := common.Start("aareplay", stderr)
	if err != nil {
		return err
	}
	defer shutdown()

	sc, events, err := load(*scenario, *tracePath)
	if err != nil {
		return err
	}
	if *policy != "" {
		sc.Policy = *policy
	}
	if *grid > 0 {
		sc.GridPoints = *grid
	}

	solveCache, err := cacheFlags.Build()
	if err != nil {
		return err
	}
	rep, err := replay.Run(sc, replay.RunOptions{
		Seed: *seed, Addr: *addr, Events: events,
		Cache: solveCache, WarmK: cacheFlags.WarmK,
	})
	if err != nil {
		return err
	}
	if *canonical {
		rep = rep.Canonical()
	}
	if *verbose {
		fmt.Fprintln(stderr, rep.Summary())
	}
	if err := writeReport(rep, *out, stdout); err != nil {
		return err
	}
	if *csv != "" {
		if err := writeFile(*csv, rep.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// load resolves the -scenario / -trace flags into a scenario plus, for
// recorded traces, an explicit event list (nil means "expand from the
// scenario generators").
func load(scenario, tracePath string) (*replay.Scenario, []online.Event, error) {
	if tracePath != "" {
		return replay.LoadTrace(tracePath)
	}
	if strings.ContainsAny(scenario, "/.") {
		sc, err := replay.Load(scenario)
		return sc, nil, err
	}
	sc, ok := replay.Builtin(scenario)
	if !ok {
		return nil, nil, fmt.Errorf("unknown scenario %q (try -list, or pass a .json file)", scenario)
	}
	return sc, nil, nil
}

// listScenarios prints the built-in scenario families, one per line.
func listScenarios(w io.Writer) error {
	names := replay.Builtins()
	sort.Strings(names)
	for _, name := range names {
		sc, _ := replay.Builtin(name)
		kind := "steady"
		switch {
		case sc.InitialThreads > 0:
			kind = "bigfleet"
		case sc.Failures != nil:
			kind = "failures"
		case len(sc.Arrivals.Bursts) > 0:
			kind = "flash-crowd"
		case sc.Arrivals.Diurnal != nil:
			kind = "diurnal"
		case sc.DriftRate > 0:
			kind = "drift"
		}
		fmt.Fprintf(w, "%-10s %-12s servers=%d horizon=%gs policy=%s\n",
			name, kind, sc.Servers, sc.Horizon, sc.Policy)
	}
	return nil
}

// writeReport sends the JSON report to path, with "-" or "" meaning
// stdout.
func writeReport(rep *replay.Report, path string, stdout io.Writer) error {
	if path == "" || path == "-" {
		return rep.WriteJSON(stdout)
	}
	return writeFile(path, rep.WriteJSON)
}

// writeFile writes via fn to path, propagating the Close error: the
// file is the artifact, a failed flush must fail the run.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
