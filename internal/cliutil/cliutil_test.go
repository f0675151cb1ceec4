package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aa/internal/check"
	"aa/internal/telemetry"
)

func TestParseHelpPrintsSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("aathing", flag.ContinueOnError)
	var c Common
	c.AddFlags(fs)
	var stderr bytes.Buffer
	err := Parse(fs, []string{"-h"}, &stderr)
	if !errors.Is(err, ErrHelp) {
		t.Fatalf("-h returned %v, want ErrHelp", err)
	}
	for _, flagName := range []string{"-metrics-addr", "-trace-out", "-check"} {
		if !strings.Contains(stderr.String(), flagName) {
			t.Errorf("usage output missing %s:\n%s", flagName, stderr.String())
		}
	}
}

func TestParseErrorsSurface(t *testing.T) {
	fs := flag.NewFlagSet("aathing", flag.ContinueOnError)
	var c Common
	c.AddFlags(fs)
	var stderr bytes.Buffer
	if err := Parse(fs, []string{"-check=banana"}, &stderr); err == nil {
		t.Fatal("bad flag value accepted")
	}
}

func TestStartEnablesAndSummarizesChecks(t *testing.T) {
	c := Common{Check: true}
	var stderr bytes.Buffer
	shutdown, err := c.Start("aathing", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !check.Enabled() {
		t.Error("Start with Check did not enable checking")
	}
	shutdown()
	if check.Enabled() {
		t.Error("shutdown did not disable checking")
	}
	if !strings.Contains(stderr.String(), "aathing: check:") {
		t.Errorf("missing check summary, stderr: %q", stderr.String())
	}
}

func TestStartWithoutFlagsIsQuiet(t *testing.T) {
	var c Common
	var stderr bytes.Buffer
	shutdown, err := c.Start("aathing", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown()
	if stderr.Len() != 0 {
		t.Errorf("unexpected output: %q", stderr.String())
	}
}

func TestStartTraceOutOpensProcessRoot(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	c := Common{TraceOut: traceFile}
	var stderr bytes.Buffer
	shutdown, err := c.Start("aathing", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.TraceEnabled() {
		t.Fatal("Start with TraceOut did not enable tracing")
	}
	if !telemetry.ProcessParent().Valid() {
		t.Fatal("Start did not install a process-wide parent span")
	}
	work := telemetry.NewStage("orphan.work", nil).StartIn(telemetry.SpanContext{})
	work.End()
	shutdown()
	if telemetry.TraceEnabled() {
		t.Error("shutdown left tracing enabled")
	}
	if telemetry.ProcessParent().Valid() {
		t.Error("shutdown left the process parent installed")
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name   string         `json:"name"`
		Trace  string         `json:"trace_id"`
		Span   string         `json:"span_id"`
		Parent string         `json:"parent_id"`
		Attrs  map[string]any `json:"attrs"`
	}
	byName := map[string]rec{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		byName[r.Name] = r
	}
	proc, ok := byName["process"]
	if !ok {
		t.Fatalf("no process span in %s", string(data))
	}
	if proc.Attrs["binary"] != "aathing" {
		t.Errorf("process attrs = %v, want binary=aathing", proc.Attrs)
	}
	if proc.Parent != "" {
		t.Errorf("process span has parent %q, want root", proc.Parent)
	}
	orphan := byName["orphan.work"]
	if orphan.Parent != proc.Span || orphan.Trace != proc.Trace {
		t.Errorf("orphan span not linked under process root: %+v vs %+v", orphan, proc)
	}
}

func TestStartProfileDirCapturesProfiles(t *testing.T) {
	dir := t.TempDir()
	c := Common{ProfileDir: dir}
	var stderr bytes.Buffer
	shutdown, err := c.Start("aathing", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	// The default CPU window is seconds long; the cpu capture file is
	// created as soon as the first cycle's window opens.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cpus, _ := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
		if len(cpus) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cpu profile capture started")
		}
		time.Sleep(time.Millisecond)
	}
	shutdown()
	if !strings.Contains(stderr.String(), "pprof profiles") {
		t.Errorf("missing profiler startup line, stderr: %q", stderr.String())
	}
}

func TestStartProfileDirErrorShutsTelemetryDown(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := Common{ProfileDir: filepath.Join(file, "sub")}
	var stderr bytes.Buffer
	if _, err := c.Start("aathing", &stderr); err == nil {
		t.Fatal("Start with unusable profile dir succeeded, want error")
	}
}
