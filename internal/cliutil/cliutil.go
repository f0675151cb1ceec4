// Package cliutil collects the command-line plumbing every AA binary
// shares, so the observability and verification surface is uniform
// across aasolve, aagen, aabench, aaonline, aacache and aaserve:
//
//   - -metrics-addr serves live /metrics, /metrics/history and
//     /debug/pprof,
//   - -trace-out appends telemetry span/event JSONL to a file; every
//     span of the run links under one per-invocation "process" root
//     span (the process-wide default parent), so the file reconstructs
//     into a single trace tree with no per-binary wiring,
//   - -profile-dir runs the continuous profiler: periodic CPU and heap
//     pprof captures into a bounded on-disk ring,
//   - -check (or AA_CHECK=1) turns on process-wide invariant checking
//     (internal/check), which the engine pipeline enforces on every
//     solve, with a per-binary check summary printed at exit.
//
// Typical use:
//
//	fs := flag.NewFlagSet("aathing", flag.ContinueOnError)
//	var common cliutil.Common
//	common.AddFlags(fs)
//	if err := cliutil.Parse(fs, args, stderr); err != nil {
//		return err // nil for -h, after usage was printed
//	}
//	shutdown, err := common.Start("aathing", stderr)
//	if err != nil {
//		return err
//	}
//	defer shutdown()
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aa/internal/check"
	"aa/internal/telemetry"
)

// Common is the flag set shared by every AA binary.
type Common struct {
	MetricsAddr string
	TraceOut    string
	ProfileDir  string
	Check       bool
}

// AddFlags registers the shared flags on fs with the shared wording.
func (c *Common) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve /metrics and /debug/pprof on this address (e.g. localhost:0)")
	fs.StringVar(&c.TraceOut, "trace-out", "",
		"write telemetry span/event JSONL to this file")
	fs.StringVar(&c.ProfileDir, "profile-dir", "",
		"continuously capture CPU and heap pprof profiles into this directory (bounded ring)")
	fs.BoolVar(&c.Check, "check", os.Getenv("AA_CHECK") == "1",
		"verify solver outputs through internal/check (also AA_CHECK=1)")
}

// ErrHelp is returned by Parse after -h/-help printed the flag
// documentation; commands should treat it as a successful exit:
//
//	if err := cliutil.Parse(fs, args, stderr); err != nil {
//		if errors.Is(err, cliutil.ErrHelp) {
//			return nil
//		}
//		return err
//	}
var ErrHelp = flag.ErrHelp

// Parse parses args with usage output going to stderr, so -h documents
// the shared flags instead of dying with an opaque "flag: help
// requested". Parse errors are printed by the flag package (with
// usage) and returned.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return ErrHelp
		}
		return err
	}
	return nil
}

// stageProcess is the root span of a -trace-out run.
var stageProcess = telemetry.NewStage("process", nil)

// Start turns the parsed common flags on: the metrics endpoint and
// trace sink via telemetry.Setup, the continuous profiler when
// ProfileDir is set, and process-wide invariant checking when Check is
// set. With a trace sink installed, Start also opens the binary's
// "process" root span and installs it as the process-wide default
// parent, so every span the run emits — engine solves, solver stages,
// pool events — links into one trace.
//
// The returned shutdown function prints the check summary (when
// checking), ends the process span, stops the profiler, and flushes
// telemetry; defer it.
func (c *Common) Start(name string, stderr io.Writer) (func(), error) {
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format, a...) }
	shutdownTelemetry, err := telemetry.Setup(c.MetricsAddr, c.TraceOut, logf)
	if err != nil {
		return nil, err
	}
	var prof *telemetry.Profiler
	if c.ProfileDir != "" {
		prof, err = telemetry.StartProfiler(c.ProfileDir, telemetry.ProfilerOptions{Logf: logf})
		if err != nil {
			sherr := shutdownTelemetry()
			_ = sherr // the profiler error is the one worth reporting
			return nil, err
		}
		logf("telemetry: writing pprof profiles to %s\n", c.ProfileDir)
	}
	procSpan := stageProcess.StartIn(telemetry.SpanContext{})
	procSpan.Str("binary", name)
	telemetry.SetProcessParent(procSpan.Context())
	if c.Check {
		check.Enable()
	}
	return func() {
		if c.Check {
			check.Disable()
			checks, violations := check.Totals()
			fmt.Fprintf(stderr, "%s: check: %d checks, %d violations\n", name, checks, violations)
		}
		// End the process span (it must land in the file) and clear the
		// default parent before the sink detaches.
		telemetry.SetProcessParent(telemetry.SpanContext{})
		procSpan.End()
		if prof != nil {
			prof.Stop()
		}
		if err := shutdownTelemetry(); err != nil {
			logf("%s: telemetry shutdown: %v\n", name, err)
		}
	}, nil
}
