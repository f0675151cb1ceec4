// Command aabench regenerates the paper's evaluation (Figures 1–3 of
// IPDPS'16 "Utility Maximizing Thread Assignment and Resource
// Allocation"): for each figure it sweeps the paper's parameter grid,
// runs Algorithm 2 against the super-optimal bound and the UU/UR/RU/RR
// heuristics over many random trials, and prints the mean utility ratios
// as a table (optionally also an ASCII chart and CSV files).
//
// Usage:
//
//	aabench [-fig all|fig1a|fig1b|fig2a|fig2b|fig3a|fig3b|fig3c|ext-ls]
//	        [-ext] [-plot] [-trials 1000] [-seed 1] [-workers 0]
//	        [-timeout 0] [-csv dir] [-v] [-check]
//	        [-metrics-addr host:port] [-trace-out file.jsonl]
//
// Trials fan out across a solver pool with -workers goroutines
// (0 = GOMAXPROCS); the tables are identical for every worker count.
// -timeout bounds the whole run: on expiry the remaining trials are
// cancelled and the command fails with the deadline error. -ext
// additionally runs the extension experiments (e.g. ext-ls: local
// search and greedy-marginal against the super-optimal bound) when
// -fig all is selected.
//
// Observability: -metrics-addr serves live Prometheus text at
// /metrics, standard expvar JSON at /debug/vars, and net/http/pprof
// at /debug/pprof while the run executes (use :0 for an ephemeral
// port; the bound address is printed to stderr). -trace-out appends
// one JSONL span/event per solver stage and sweep point for offline
// analysis. -v enables telemetry and prints a one-line summary (total
// solves, p50/p99 solve latency, λ-search probes per solve) to
// stderr at exit.
//
// -check (or AA_CHECK=1) verifies every trial through internal/check —
// feasibility for each solver's assignment, the α-ratio guarantee for
// Assign1/Assign2 and the F ≤ F̂ bound for the heuristics — failing the
// run on the first violation and printing a check summary at exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"aa/internal/cliutil"
	"aa/internal/experiment"
	"aa/internal/hetero"
	"aa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "aabench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aabench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure id to run, or 'all'")
		trials  = fs.Int("trials", experiment.DefaultTrials, "random trials per sweep point")
		seed    = fs.Uint64("seed", 1, "base random seed")
		workers = fs.Int("workers", 0, "solver pool workers (0 = GOMAXPROCS)")
		timeout = fs.Duration("timeout", 0, "overall deadline for the run (0 = none)")
		csvDir  = fs.String("csv", "", "directory to write per-figure CSV files (optional)")
		ext     = fs.Bool("ext", false, "with -fig all, also run the extension experiments")
		plot    = fs.Bool("plot", false, "render each figure as an ASCII chart as well")
		rom     = fs.Bool("rom", false, "also print the ratio-of-means estimator table")
		verbose = fs.Bool("v", false, "print a one-line telemetry summary to stderr at exit")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	shutdown, err := common.Start("aabench", stderr)
	if err != nil {
		return err
	}
	defer shutdown()
	if *verbose {
		telemetry.Enable()
		defer printTelemetrySummary(stderr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// ext-hetero and ext-runtime have their own harnesses (per-server
	// capacities and wall-clock timing do not fit the homogeneous
	// ratio-sweep pipeline).
	switch *fig {
	case "ext-hetero":
		tbl, err := hetero.SkewSeries(*trials, *seed)
		if err != nil {
			return err
		}
		return tbl.WriteASCII(stdout)
	case "ext-runtime":
		reps := *trials
		if reps > 50 {
			reps = 50 // timing needs repetitions, not the paper's 1000 trials
		}
		tbl, err := experiment.RuntimeTable(*seed, reps)
		if err != nil {
			return err
		}
		return tbl.WriteASCII(stdout)
	}

	var specs []experiment.Spec
	if *fig == "all" {
		specs = experiment.AllFigures(*trials)
		if *ext {
			specs = append(specs, experiment.AllExtensions(*trials)...)
		}
	} else {
		spec, ok := experiment.ByID(*fig, *trials)
		if !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		specs = []experiment.Spec{spec}
	}

	for _, spec := range specs {
		start := time.Now()
		res, err := experiment.RunContext(ctx, spec, *seed, *workers)
		if err != nil {
			return err
		}
		if err := experiment.Render(res).WriteASCII(stdout); err != nil {
			return err
		}
		if *rom {
			if err := experiment.RenderRoM(res).WriteASCII(stdout); err != nil {
				return err
			}
		}
		if *plot {
			if err := experiment.RenderChart(res).WriteASCII(stdout); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", spec.ID, time.Since(start).Round(time.Millisecond))

		if *csvDir != "" {
			if err := writeCSV(*csvDir, spec.ID, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// printTelemetrySummary writes the -v one-liner: total solves, p50/p99
// solve latency, and mean λ-search probes per super-optimal solve (the
// bisection_iters field, named when the search bisected), all read
// from the process-wide telemetry registry.
func printTelemetrySummary(stderr io.Writer) {
	reg := telemetry.Default
	solves := reg.Counter("aa_pool_completed_total").Value()
	lat := reg.Histogram("aa_pool_solve_latency_seconds", telemetry.LatencyBuckets)
	iters := reg.Counter("aa_core_bisection_iterations_total").Value()
	calls := reg.Counter("aa_core_superopt_total").Value()
	perSolve := 0.0
	if calls > 0 {
		perSolve = float64(iters) / float64(calls)
	}
	fmt.Fprintf(stderr,
		"aabench: telemetry: solves=%d p50=%s p99=%s bisection_iters/solve=%.1f\n",
		solves,
		time.Duration(lat.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
		time.Duration(lat.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond),
		perSolve)
}

func writeCSV(dir, id string, res *experiment.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiment.Render(res).WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	// Close errors matter here: the CSV is the artifact, and a failed
	// flush would otherwise be dropped silently.
	return f.Close()
}
