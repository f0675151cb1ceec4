package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI half of the determinism gate: two -canonical runs with the
// same scenario and seed must emit byte-identical reports.
func TestCanonicalRunsBitIdentical(t *testing.T) {
	args := []string{"-scenario", "flash", "-seed", "9", "-grid", "16", "-canonical"}
	var a, b bytes.Buffer
	if err := run(args, &a, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("no report written")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed -canonical runs differ")
	}
	if bytes.Contains(a.Bytes(), []byte(`"wall"`)) {
		t.Fatal("-canonical report still contains the wall section")
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	csv := filepath.Join(dir, "trajectory.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-scenario", "churn", "-seed", "4", "-grid", "12",
		"-out", out, "-csv", csv, "-v",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty with -out: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "scenario=churn") {
		t.Errorf("missing -v summary: %q", stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenario struct {
			Name   string `json:"name"`
			Policy string `json:"policy"`
		} `json:"scenario"`
		Trajectory []json.RawMessage `json:"trajectory"`
		Wall       json.RawMessage   `json:"wall"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario.Name != "churn" || rep.Scenario.Policy != "hybrid" {
		t.Errorf("bad report header: %+v", rep.Scenario)
	}
	if len(rep.Trajectory) != 13 {
		t.Errorf("trajectory has %d samples, want 13", len(rep.Trajectory))
	}
	if rep.Wall == nil {
		t.Error("wall section missing without -canonical")
	}
	csvRaw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(csvRaw), "\n"), "\n")
	if lines[0] != "t,threads,up_servers,queue_depth,resolves,utility,bound" {
		t.Errorf("bad CSV header %q", lines[0])
	}
	if len(lines) != 14 {
		t.Errorf("CSV has %d lines, want 14", len(lines))
	}
}

func TestScenarioFileAndPolicyOverride(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	src := `{
		"name": "tiny", "servers": 2, "capacity": 100, "horizon": 600,
		"utility": {"dist": "uniform"},
		"arrivals": {"baseRate": 0.05},
		"lifetime": {"mean": 60},
		"gridPoints": 8
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{"-scenario", path, "-policy", "incremental", "-seed", "2"},
		&stdout, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenario struct {
			Name   string `json:"name"`
			Policy string `json:"policy"`
		} `json:"scenario"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario.Name != "tiny" || rep.Scenario.Policy != "incremental" {
		t.Errorf("got %+v", rep.Scenario)
	}
}

func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	src := `{
		"name": "rec", "servers": 2, "capacity": 100, "gridPoints": 4,
		"events": [
			{"t": 1, "kind": "arrive", "id": 0, "v": 4, "w": 2},
			{"t": 2, "kind": "arrive", "id": 1, "v": 3, "w": 1},
			{"t": 5, "kind": "fail", "id": 0},
			{"t": 8, "kind": "recover", "id": 0},
			{"t": 10, "kind": "depart", "id": 1}
		]
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-trace", path, "-canonical"}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Trace struct {
			Events   int `json:"events"`
			Failures int `json:"failures"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Events != 5 || rep.Trace.Failures != 1 {
		t.Errorf("got %+v", rep.Trace)
	}
}

func TestList(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"diurnal", "flash", "failures", "churn"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout.String())
		}
	}
}

func TestErrors(t *testing.T) {
	sink := func() (*bytes.Buffer, *bytes.Buffer) { return &bytes.Buffer{}, &bytes.Buffer{} }
	for name, args := range map[string][]string{
		"unknown scenario": {"-scenario", "volcano"},
		"missing file":     {"-scenario", "nope/missing.json"},
		"missing trace":    {"-trace", "nope/missing.json"},
		"bad policy":       {"-scenario", "flash", "-policy", "sorcery"},
		"addr non-full":    {"-scenario", "churn", "-addr", "localhost:1"},
	} {
		o, e := sink()
		if err := run(args, o, e); err == nil {
			t.Errorf("%s: succeeded", name)
		}
	}
}

func TestHelp(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, &bytes.Buffer{}, &stderr); err != nil {
		t.Fatalf("-h should exit clean: %v", err)
	}
	if !strings.Contains(stderr.String(), "-scenario") {
		t.Error("usage missing -scenario")
	}
}

// -cache memory adds a deterministic cache section with warm-start
// rates to the report (churn scenario: consecutive solves differ by a
// few threads, the warm-start operating point).
func TestCacheFlagAddsReportSection(t *testing.T) {
	args := []string{"-scenario", "churn", "-policy", "full-resolve", "-seed", "3",
		"-grid", "16", "-canonical", "-cache", "memory", "-cache-warm-k", "8"}
	var a, b bytes.Buffer
	if err := run(args, &a, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed cached -canonical runs differ")
	}
	var rep struct {
		Cache *struct {
			Mode       string  `json:"mode"`
			Misses     uint64  `json:"misses"`
			WarmStarts uint64  `json:"warmStarts"`
			WarmRate   float64 `json:"warmRate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(a.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil {
		t.Fatal("-cache memory report has no cache section")
	}
	if rep.Cache.Mode != "memory" || rep.Cache.Misses == 0 {
		t.Fatalf("cache section %+v, want memory mode with misses", rep.Cache)
	}
	if rep.Cache.WarmStarts == 0 || rep.Cache.WarmRate <= 0 {
		t.Fatalf("churn replay reported no warm starts: %+v", rep.Cache)
	}
}

// TestCacheWarmKFlag: aareplay runs an engine, so it takes the engine's
// warm-start bound (the relay does not; see aarelay's tests).
func TestCacheWarmKFlag(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-cache-warm-k", "8", "-h"}, &bytes.Buffer{}, &stderr); err != nil {
		t.Fatalf("-cache-warm-k 8 -h = %v", err)
	}
	if !strings.Contains(stderr.String(), "-cache-warm-k") {
		t.Error("usage missing -cache-warm-k")
	}
}
