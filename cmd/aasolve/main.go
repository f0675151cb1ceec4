// Command aasolve solves one AA instance given as JSON (see
// internal/instio for the format) and prints the assignment.
//
// Usage:
//
//	aasolve [-algo a2|a1|a2p|ls|gm|exact|uu|ur|ru|rr] [-seed 1] [-json]
//	        [-check] [-maxnodes 0] [-metrics-addr host:port]
//	        [-trace-out file.jsonl] [file]
//
// With no file argument the instance is read from stdin. The default
// output is a human-readable table; -json emits machine-readable JSON
// including the super-optimal upper bound. Every solve routes through
// the internal/engine registry — -algo names accept both the short CLI
// aliases above and the registry's canonical names (assign2, polish,
// greedy, ...). Beyond the paper's algorithms, a2p is Algorithm 2 +
// allocation polish and ls is Algorithm 2 + relocation/swap local
// search; gm is the marginal-gain greedy baseline. -metrics-addr serves
// live /metrics and /debug/pprof while solving; -trace-out
// appends solver-stage span events as JSONL (useful for profiling a
// single large instance). -check (or AA_CHECK=1) verifies the solution
// through the engine's check middleware: strict feasibility for every
// algorithm, plus the α-ratio guarantee for the algorithms that carry
// one (a1, a2, a2p, ls).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"aa/internal/check"
	"aa/internal/cliutil"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/tableio"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "aasolve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aasolve", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "a2", "solver backend: a2, a1, a2p, ls, gm, exact, uu, ur, ru, rr")
		seed     = fs.Uint64("seed", 1, "seed for the randomized heuristics")
		asJSON   = fs.Bool("json", false, "emit the assignment as JSON")
		maxNodes = fs.Int("maxnodes", 0, "node limit for -algo exact (0 = default)")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	shutdown, err := common.Start("aasolve", stderr)
	if err != nil {
		return err
	}
	defer shutdown()

	var src io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	in, err := instio.Decode(src)
	if err != nil {
		return err
	}

	req := engine.Request{
		Instance:    in,
		Backend:     *algo,
		Seed:        *seed,
		MaxNodes:    *maxNodes,
		WantUtility: true,
	}
	resp, err := engine.Default().Solve(context.Background(), &req)
	if err != nil {
		return err
	}
	a := resp.Assignment

	if common.Check {
		// The engine's check middleware already enforced feasibility and
		// the ratio bounds; recompute the report here only for display.
		var rep check.RatioReport
		if !math.IsNaN(resp.Bound) {
			rep = check.RatioAgainst(resp.Bound, in, a)
		} else {
			rep = check.Ratio(in, a)
		}
		fmt.Fprintf(stderr, "aasolve: check ok: feasible, F/F̂ = %.4f\n", rep.Ratio)
	}

	if *asJSON {
		return instio.EncodeAssignment(stdout, in, a)
	}

	so := core.SuperOptimal(in)
	u := resp.Utility
	t := tableio.New(
		fmt.Sprintf("%s on n=%d threads, m=%d servers, C=%g", *algo, in.N(), in.M, in.C),
		"thread", "server", "alloc", "utility")
	for i := range in.Threads {
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", a.Server[i]),
			fmt.Sprintf("%.3f", a.Alloc[i]),
			fmt.Sprintf("%.4f", in.Threads[i].Value(a.Alloc[i])),
		)
	}
	if err := t.WriteASCII(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "total utility      %.4f\n", u)
	fmt.Fprintf(stdout, "super-optimal F̂    %.4f\n", so.Total)
	if so.Total > 0 {
		fmt.Fprintf(stdout, "fraction of bound  %.4f (guarantee: >= %.4f for a1/a2)\n",
			u/so.Total, core.Alpha)
	}
	return nil
}
