package main

import (
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"aa/internal/engine"
	"aa/internal/telemetry"
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
// /metrics exposes after one solve per backend. The registry is
// process-wide and other tests register names of their own, so the
// scrape runs in a fresh copy of this test binary.
func TestMetricsNameSetPinned(t *testing.T) {
	if os.Getenv("AASERVE_METRICS_PIN") == "1" {
		checkMetricNames(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsNameSetPinned$", "-test.count=1")
	cmd.Env = append(os.Environ(), "AASERVE_METRICS_PIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("metrics name set: %v\n%s", err, out)
	}
}

func checkMetricNames(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	ts := newTestServer(t)
	for _, backend := range engine.Backends() {
		resp, body := postSolve(t, ts, "/solve?backend="+backend, demoInstance)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
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
