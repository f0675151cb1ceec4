package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"aa/internal/engine"
	"aa/internal/instio"
)

const demoInstance = `{
  "m": 2, "c": 100,
  "threads": [
    {"kind": "log", "scale": 5, "shift": 10},
    {"kind": "power", "scale": 2, "beta": 0.5},
    {"kind": "cappedLinear", "slope": 1, "knee": 30},
    {"kind": "satexp", "scale": 3, "k": 20}
  ]
}`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Backend: "a2", Workers: 2})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer((&server{eng: eng}).mux())
	t.Cleanup(ts.Close)
	return ts
}

func postSolve(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSolveEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postSolve(t, ts, "/solve?check=1", demoInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var a instio.AssignmentJSON
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(a.Server) != 4 || len(a.Alloc) != 4 {
		t.Fatalf("short assignment: %+v", a)
	}
	if a.Utility <= 0 || a.Bound < a.Utility-1e-9 {
		t.Fatalf("utility %v, bound %v", a.Utility, a.Bound)
	}
}

func TestSolveBackendsAndSeeds(t *testing.T) {
	ts := newTestServer(t)
	for _, backend := range []string{"a1", "polish", "greedy", "uu", "ur", "exact"} {
		resp, body := postSolve(t, ts, "/solve?backend="+backend+"&seed=7", demoInstance)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, resp.StatusCode, body)
		}
	}
}

// TestSolveErrorNamesFieldPath: a 400 for a malformed instance says
// where in the body the fault is.
func TestSolveErrorNamesFieldPath(t *testing.T) {
	ts := newTestServer(t)
	bad := strings.Replace(demoInstance, `"kind": "satexp"`, `"kind": "cubic"`, 1)
	for _, tc := range []struct{ path, body, want string }{
		{"/solve", bad, `instio: threads[3].kind: unknown utility kind "cubic"`},
		{"/solve/batch", "[" + bad + "]", `instio: instance 0: threads[3].kind: unknown utility kind "cubic"`},
	} {
		resp, got := postSolve(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), tc.want) {
			t.Errorf("%s: status %d, body %q; want 400 naming %q", tc.path, resp.StatusCode, got, tc.want)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/solve", "not json", http.StatusBadRequest},
		{"/solve?backend=nope", demoInstance, http.StatusBadRequest},
		{"/solve?deadline=bogus", demoInstance, http.StatusBadRequest},
		{"/solve?seed=minus", demoInstance, http.StatusBadRequest},
		// The client's own branch-and-bound budget running out is its
		// error, not the server's. No split of these knees fills both
		// servers, so the root's bound cannot prune the search.
		{"/solve?backend=exact&maxnodes=1", `{"m": 2, "c": 5, "threads": [
			{"kind": "cappedLinear", "slope": 1, "knee": 3}, {"kind": "cappedLinear", "slope": 1, "knee": 3},
			{"kind": "cappedLinear", "slope": 1, "knee": 3}, {"kind": "cappedLinear", "slope": 1, "knee": 1}]}`,
			http.StatusUnprocessableEntity},
		{"/solve/batch", "[]", http.StatusBadRequest},
		{"/solve/batch", `[{"m": 0, "c": 1, "threads": []}]`, http.StatusBadRequest},
		// Bytes after the instance, or after the batch's closing ']',
		// make the body malformed; they are not ignored.
		{"/solve", demoInstance + " garbage{", http.StatusBadRequest},
		{"/solve/batch", "[" + demoInstance + "] garbage{", http.StatusBadRequest},
	} {
		resp, body := postSolve(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.path, resp.StatusCode, tc.status, body)
		}
	}

	get, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d", get.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	batch := "[" + demoInstance + "," + demoInstance + "," + demoInstance + "]"
	resp, body := postSolve(t, ts, "/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []instio.AssignmentJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Utility != out[0].Utility {
			t.Errorf("identical instances solved differently: %v vs %v", out[i].Utility, out[0].Utility)
		}
	}
}

func TestAuxiliaryEndpoints(t *testing.T) {
	ts := newTestServer(t)
	for path, want := range map[string]string{
		"/healthz":    "ok",
		"/backends":   "assign2",
		"/metrics":    "aa_",
		"/debug/vars": "memstats",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body, want) {
			t.Errorf("%s: missing %q in:\n%s", path, want, body)
		}
	}
}

// TestServeAndShutdown exercises the real run() lifecycle: bind an
// ephemeral port, solve over TCP, then SIGTERM-drain. With -check,
// every solve must move aa_check_total.
func TestServeAndShutdown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-check"}, testWriter{t}, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	for _, backend := range []string{"assign2", "assign1", "greedy"} {
		before := checkTotal(t, addr)
		resp, err := http.Post("http://"+addr+"/solve?backend="+backend, "application/json", strings.NewReader(demoInstance))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", backend, resp.StatusCode)
		}
		if after := checkTotal(t, addr); after <= before {
			t.Fatalf("%s: aa_check_total %v -> %v, want it to grow under -check", backend, before, after)
		}
	}
	// run() has SIGTERM notification installed before it reports ready,
	// so raising it here reaches the drain path, not the default
	// handler.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

// checkTotal scrapes aa_check_total from the node's /metrics.
func checkTotal(t *testing.T, addr string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if v, ok := strings.CutPrefix(line, "aa_check_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("aa_check_total line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatal("/metrics has no aa_check_total")
	return 0
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestSolveNonFiniteAnswer: an instance whose answer overflows float64
// gets the same typed 422 on both routes, with a body naming the field.
// /solve used to answer an empty 200 and /solve/batch a 500.
func TestSolveNonFiniteAnswer(t *testing.T) {
	ts := newTestServer(t)
	const inst = `{"m":1,"c":1e308,"threads":[{"kind":"linear","slope":1e308}]}`
	for _, tc := range []struct{ path, body string }{
		{"/solve", inst},
		{"/solve/batch", "[" + inst + "]"},
	} {
		resp, body := postSolve(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusUnprocessableEntity ||
			!strings.Contains(string(body), "instio: utility: non-finite number") {
			t.Errorf("%s: status %d, body %q; want 422 naming the utility field", tc.path, resp.StatusCode, body)
		}
	}
}

// TestCacheWarmKFlag: aaserve runs an engine, so it takes the engine's
// warm-start bound (the relay does not; see aarelay's tests).
func TestCacheWarmKFlag(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-cache-warm-k", "8", "-h"}, &stderr, nil); err != nil {
		t.Fatalf("-cache-warm-k 8 -h = %v", err)
	}
	if !strings.Contains(stderr.String(), "-cache-warm-k") {
		t.Error("usage missing -cache-warm-k")
	}
}
