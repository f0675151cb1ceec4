package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"

	"aa/internal/engine"
)

// metricNames are the `# TYPE` lines of aaserve's /metrics after one
// solve per backend: every aa_* base name the node exposes, with its
// kind.
var metricNames = []string{
	"aa_cache_bypasses_total counter",
	"aa_cache_evictions_total counter",
	"aa_cache_hits_total counter",
	"aa_cache_misses_total counter",
	"aa_cache_stores_total counter",
	"aa_cache_warm_starts_total counter",
	"aa_check_total counter",
	"aa_check_violations_total counter",
	"aa_core_assign1_seconds histogram",
	"aa_core_assign2_seconds histogram",
	"aa_core_assign2_total counter",
	"aa_core_bisection_iterations_total counter",
	"aa_core_linearize_total counter",
	"aa_core_localsearch_seconds histogram",
	"aa_core_superopt_seconds histogram",
	"aa_core_superopt_total counter",
	"aa_engine_failures_total counter",
	"aa_engine_requests_total counter",
	"aa_engine_solve_latency_seconds histogram",
	"aa_pool_cancelled_total counter",
	"aa_pool_completed_total counter",
	"aa_pool_failed_total counter",
	"aa_pool_queue_depth gauge",
	"aa_pool_rejected_total counter",
	"aa_pool_solve_latency_seconds histogram",
	"aa_pool_submitted_total counter",
}

// TestMetricsNameSetPinned pins the set of aa_* names aaserve's
// /metrics exposes after one solve per backend. It builds the real
// binary and scrapes it, so the pin holds exactly what the aaserve
// program registers: nothing a test file of this package imports, and
// nothing another test registers in the shared registry.
func TestMetricsNameSetPinned(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "aaserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build aaserve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	// The first stderr line is "aaserve: listening on http://ADDR".
	line, err := bufio.NewReader(stderr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listening line: %v (got %q)", err, line)
	}
	_, url, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
	if !ok {
		t.Fatalf("first stderr line %q is not the listening line", line)
	}
	go func() { _, _ = io.Copy(io.Discard, stderr) }()

	for _, backend := range engine.Backends() {
		resp, err := http.Post(url+"/solve?backend="+backend, "application/json", strings.NewReader(demoInstance))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []string
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok && strings.HasPrefix(name, "aa_") {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(metricNames, "\n") {
		t.Fatalf("/metrics names:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(metricNames, "\n"))
	}
}
