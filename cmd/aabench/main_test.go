package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aa/internal/telemetry"
)

func TestRunSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig2b", "-trials", "3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fig2b", "A2/SO", "alpha"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
}

func TestRunWithPlotAndCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-fig", "fig3c", "-trials", "2", "-plot", "-csv", dir}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "utility ratio") {
		t.Error("plot not rendered")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig3c.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "theta,n,A2/SO") {
		t.Errorf("csv header: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig9z"}, &out, io.Discard); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	args := []string{"-fig", "fig2b", "-trials", "2", "-seed", "3"}
	var a, b bytes.Buffer
	if err := run(args, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Strip the timing lines before comparing.
	clean := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "(") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if clean(a.String()) != clean(b.String()) {
		t.Error("same seed produced different tables")
	}
}

// Worker count must not change a single digit of the output.
func TestRunSameTablesForAnyWorkerCount(t *testing.T) {
	clean := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "(") { // timing line
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	var serial, parallel bytes.Buffer
	if err := run([]string{"-fig", "fig3b", "-trials", "6", "-seed", "9", "-workers", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "fig3b", "-trials", "6", "-seed", "9", "-workers", "8"}, &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if clean(serial.String()) != clean(parallel.String()) {
		t.Errorf("-workers=8 output differs from -workers=1:\n--- 1 ---\n%s\n--- 8 ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunTimeoutExpires(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "fig1a", "-trials", "5000", "-timeout", "1ms"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestRunWorkersFlag: -workers sets the pool size; the deleted
// -parallel alias is now an unknown flag.
func TestRunWorkersFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig2b", "-trials", "2", "-workers", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig2b") {
		t.Errorf("output:\n%s", out.String())
	}
	if err := run([]string{"-fig", "fig2b", "-trials", "2", "-parallel", "2"}, io.Discard, io.Discard); err == nil {
		t.Error("-parallel accepted; the alias is deleted")
	}
}

func TestRunVerboseSummary(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fig", "fig2b", "-trials", "2", "-v"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := errBuf.String()
	for _, want := range []string{"telemetry: solves=", "p50=", "p99=", "bisection_iters/solve="} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in stderr:\n%s", want, s)
		}
	}
	if strings.Contains(s, "solves=0 ") {
		t.Errorf("summary reports zero solves:\n%s", s)
	}
}

func TestRunTraceOut(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig2b", "-trials", "2", "-trace-out", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
			Name string `json:"name"`
			TS   int64  `json:"ts_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		names[rec.Name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.superopt", "core.assign2", "experiment.point"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
}

func TestRunMetricsAddr(t *testing.T) {
	t.Cleanup(telemetry.Disable)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fig", "fig2b", "-trials", "2", "-metrics-addr", "localhost:0"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "telemetry: serving") {
		t.Errorf("stderr missing serving line:\n%s", errBuf.String())
	}
}

func TestRunExtHetero(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "ext-hetero", "-trials", "3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ext-hetero") || !strings.Contains(out.String(), "A/SO") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunExtRuntime(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "ext-runtime", "-trials", "1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ext-runtime") || !strings.Contains(out.String(), "us/thread") {
		t.Errorf("output:\n%s", out.String())
	}
}
