package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunProducesTables(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-events", "40", "-costs", "0,10"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"policy summary", "full-resolve", "hybrid(0.83)", "incremental",
		"net value", "migrations",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	args := []string{"-events", "30", "-seed", "5", "-costs", "0"}
	var a, b bytes.Buffer
	if err := run(args, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different output")
	}
}

// The parallel grid must print the same tables as a single worker.
func TestRunSameOutputForAnyWorkerCount(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run([]string{"-events", "30", "-seed", "5", "-costs", "0,10", "-workers", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events", "30", "-seed", "5", "-costs", "0,10", "-workers", "8"}, &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-workers=8 output differs from -workers=1:\n--- 1 ---\n%s\n--- 8 ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunTimeoutExpires(t *testing.T) {
	var out bytes.Buffer
	// The deadline expires while the first grid cells are in flight; the
	// remaining cells are cancelled and the error propagates. The
	// timeline is long enough that one simulation outlasts the deadline.
	err := run([]string{"-events", "1000", "-timeout", "1ms"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-costs", "zero"}, &out, io.Discard); err == nil {
		t.Error("bad costs accepted")
	}
	if err := run([]string{"-events", "0"}, &out, io.Discard); err == nil {
		t.Error("zero events accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-events", "30", "-costs", "0,10", "-csv", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(filepath.Join(dir, "policy-summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(summary), "policy,utility-integral,migrations") {
		t.Errorf("summary header: %q", strings.SplitN(string(summary), "\n", 2)[0])
	}
	sweep, err := os.ReadFile(filepath.Join(dir, "net-value-sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(sweep), "cost,full-resolve") {
		t.Errorf("sweep header: %q", strings.SplitN(string(sweep), "\n", 2)[0])
	}
}

func TestRunCSVCreateFails(t *testing.T) {
	// Pointing -csv at a path whose parent is a file makes MkdirAll fail;
	// the error must propagate out of run rather than being swallowed.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-events", "30", "-costs", "0", "-csv", filepath.Join(blocker, "sub")}, &out, io.Discard)
	if err == nil {
		t.Error("csv write error not propagated")
	}
}

func TestParseCosts(t *testing.T) {
	costs, err := parseCosts(" 0, 1.5 ,20 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 || costs[1] != 1.5 {
		t.Errorf("costs %v", costs)
	}
}
