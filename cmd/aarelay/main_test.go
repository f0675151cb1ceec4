package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aa/internal/engine"
	"aa/internal/instio"
)

// demoInstance is a small 2-server instance in the instio wire format.
const demoInstance = `{
  "m": 2,
  "c": 10,
  "threads": [
    {"kind": "linear", "slope": 1.5},
    {"kind": "log", "scale": 2, "shift": 1},
    {"kind": "linear", "slope": 0.5},
    {"kind": "power", "scale": 1, "beta": 0.5}
  ]
}`

// fakeNode is a minimal aaserve stand-in: a real /solve (through the
// in-process engine, with the node's query parser: ?backend= over the
// node's default, a malformed seed or deadline a 400),
// /readyz, and a solve counter for routing asserts.
type fakeNode struct {
	srv      *httptest.Server
	requests atomic.Int64 // /solve requests received
	solves   atomic.Int64
	busy     atomic.Bool // answer 429 on /solve when set
	draining atomic.Bool // answer 503 on /readyz when set
}

func newFakeNode(t *testing.T) *fakeNode { return newFakeNodeBackend(t, "") }

// newFakeNodeBackend is newFakeNode for a node started with -backend
// def.
func newFakeNodeBackend(t *testing.T, def string) *fakeNode {
	t.Helper()
	f := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		if f.busy.Load() {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		var req engine.Request
		if _, err := engine.ParseQuery(r.URL.Query(), &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		in, err := instio.Decode(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Backend == "" {
			req.Backend = def
		}
		req.Instance = in
		resp, err := engine.Default().Solve(r.Context(), &req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		f.solves.Add(1)
		// Like aaserve: an answer JSON cannot carry is a 422.
		if err := instio.EncodeAssignment(w, in, resp.Assignment); errors.Is(err, instio.ErrNonFinite) {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
	})
	mux.HandleFunc("/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, "[\n  {\"batch\": true}\n]\n")
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "assign2  fake registry\n")
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeNode) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// startRelay runs the real run() against the given extra flags and
// returns the relay's bound address.
func startRelay(t *testing.T, args ...string) string {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { done <- run(full, testWriter{t}, ready) }()
	select {
	case addr := <-ready:
		return addr
	case err := <-done:
		t.Fatalf("relay exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("relay never became ready")
	}
	return ""
}

func postSolve(t *testing.T, addr, query string) (*http.Response, string) {
	t.Helper()
	return postBody(t, addr, query, demoInstance)
}

func postBody(t *testing.T, addr, query, body string) (*http.Response, string) {
	t.Helper()
	url := "http://" + addr + "/solve" + query
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// waitNodeState polls the relay's /nodes until the node at addr shows
// state.
func waitNodeState(t *testing.T, relay, addr, state string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + relay + "/nodes")
		if err != nil {
			t.Fatal(err)
		}
		var nodes struct {
			Nodes []struct{ Addr, State string }
		}
		err = json.NewDecoder(resp.Body).Decode(&nodes)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes.Nodes {
			if n.Addr == addr && n.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached %s: %+v", addr, state, nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRelayRoutesAndFailsOver(t *testing.T) {
	n1, n2 := newFakeNode(t), newFakeNode(t)
	addr := startRelay(t, "-nodes", n1.addr()+","+n2.addr(), "-probe-interval", "50ms")

	// Equal load: the tie goes to the first configured node.
	resp, body := postSolve(t, addr, "")
	if resp.StatusCode != http.StatusOK || n1.solves.Load() != 1 {
		t.Fatalf("solve via relay = %d (n1 solves %d): %s", resp.StatusCode, n1.solves.Load(), body)
	}
	// Drain n1: once the prober sees it, the next request goes to n2.
	n1.draining.Store(true)
	waitNodeState(t, addr, n1.addr(), "draining")
	resp2, body2 := postSolve(t, addr, "")
	if resp2.StatusCode != http.StatusOK || n2.solves.Load() != 1 {
		t.Fatalf("second solve = %d (n2 solves %d)", resp2.StatusCode, n2.solves.Load())
	}
	// Determinism across nodes: two nodes served the two requests, yet
	// the bytes must match.
	if body != body2 {
		t.Fatalf("responses differ across nodes:\n%s\n%s", body, body2)
	}
	n1.draining.Store(false)
	waitNodeState(t, addr, n1.addr(), "ready")

	// Kill n1: the very next request must fail over, not error.
	n1.srv.Close()
	for i := 0; i < 4; i++ {
		resp3, body3 := postSolve(t, addr, "")
		if resp3.StatusCode != http.StatusOK {
			t.Fatalf("post-kill solve %d = %d: %s", i, resp3.StatusCode, body3)
		}
		if body3 != body {
			t.Fatalf("post-kill response differs:\n%s\n%s", body3, body)
		}
	}

	// /nodes reflects the failure.
	nresp, err := http.Get("http://" + addr + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	nbody, _ := io.ReadAll(nresp.Body)
	nresp.Body.Close()
	if !strings.Contains(string(nbody), `"down"`) {
		t.Fatalf("/nodes does not show the dead node: %s", nbody)
	}
}

func TestRelayAllNodesBusy(t *testing.T) {
	n1, n2 := newFakeNode(t), newFakeNode(t)
	n1.busy.Store(true)
	n2.busy.Store(true)
	addr := startRelay(t, "-nodes", n1.addr()+","+n2.addr(), "-probe-interval", "1h")

	resp, _ := postSolve(t, addr, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-busy relay = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-busy 429 missing Retry-After")
	}

	// One node recovers: the spill finds it.
	n2.busy.Store(false)
	resp2, _ := postSolve(t, addr, "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery solve = %d, want 200 (429 spill to healthy node)", resp2.StatusCode)
	}
	if n2.solves.Load() == 0 {
		t.Fatal("healthy node never solved")
	}
}

func TestRelayRateLimit(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-rate", "0.5", "-burst", "2", "-probe-interval", "1h")

	var limited *http.Response
	for i := 0; i < 4; i++ {
		resp, _ := postSolve(t, addr, "")
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d", i, resp.StatusCode)
		}
	}
	if limited == nil {
		t.Fatal("burst of 2 at 0.5/s never hit the limiter in 4 requests")
	}
	ra := limited.Header.Get("Retry-After")
	if ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive integral wait", ra)
	}
}

func TestRelaySharedCacheExactHit(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-cache", "shared", "-cache-key", "test-secret",
		"-probe-interval", "1h")

	_, first := postSolve(t, addr, "")
	before := n.solves.Load()
	_, second := postSolve(t, addr, "")
	if n.solves.Load() != before {
		t.Fatalf("repeat solve reached the node (solves %d -> %d); want relay cache hit",
			before, n.solves.Load())
	}
	if first != second {
		t.Fatalf("cache hit not byte-identical:\n%q\n%q", first, second)
	}
	// cache=bypass must reach the node again.
	_, _ = postSolve(t, addr, "?cache=bypass")
	if n.solves.Load() != before+1 {
		t.Fatalf("cache=bypass did not reach the node (solves %d)", n.solves.Load())
	}
}

// TestRelayCacheKeysAbsentBackendApart: nodes started with -backend
// greedy answer a request without a backend with greedy's assignment. A
// repeat of that request is a hit, but a later ?backend=a2 request must
// reach a node, not be served the greedy answer from the cache.
func TestRelayCacheKeysAbsentBackendApart(t *testing.T) {
	n := newFakeNodeBackend(t, "greedy")
	addr := startRelay(t, "-nodes", n.addr(), "-cache", "shared", "-probe-interval", "1h")
	_, first := postSolve(t, addr, "")
	reqs := n.requests.Load()
	if _, again := postSolve(t, addr, ""); again != first || n.requests.Load() != reqs {
		t.Fatalf("repeat without a backend: node requests %d -> %d; want a byte-identical relay hit", reqs, n.requests.Load())
	}
	resp, _ := postSolve(t, addr, "?backend=a2")
	if resp.StatusCode != http.StatusOK || n.requests.Load() != reqs+1 {
		t.Fatalf("?backend=a2 after a default-backend solve = %d, node requests %d -> %d; want it solved by the node",
			resp.StatusCode, reqs, n.requests.Load())
	}
}

// TestRelayCacheSkipsRejectedQueries: a relay hit answers only what a
// node would. After a ?backend=a2 solve is cached, the same body with a
// seed or deadline the node's parser rejects must reach the node and
// come back with its 400 (a2 is deterministic, so its key holds no
// seed, and no key holds a deadline), while a well-formed seed and
// deadline on the same backend is still a hit.
func TestRelayCacheSkipsRejectedQueries(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-cache", "shared", "-probe-interval", "1h")
	resp, first := postSolve(t, addr, "?backend=a2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve = %d: %s", resp.StatusCode, first)
	}
	for _, q := range []string{"?backend=a2&seed=bogus", "?backend=a2&deadline=bogus", "?backend=a2&deadline=-1s"} {
		reqs := n.requests.Load()
		resp, body := postSolve(t, addr, q)
		if resp.StatusCode != http.StatusBadRequest || n.requests.Load() != reqs+1 {
			t.Errorf("%s = %d %q, node requests %d -> %d; want the node's 400", q, resp.StatusCode, body, reqs, n.requests.Load())
		}
	}
	reqs := n.requests.Load()
	if _, again := postSolve(t, addr, "?backend=a2&seed=7&deadline=5s"); again != first || n.requests.Load() != reqs {
		t.Fatalf("well-formed seed and deadline: node requests %d -> %d; want a byte-identical relay hit", reqs, n.requests.Load())
	}
}

// TestRelayCacheKeysWireBytes: the relay keys a body by its threads'
// exact bytes, checked outside them as the node decodes. A permuted
// repeat is a hit, byte-identical to the node's own answer for it; a
// respelled thread is another key, so it misses and reaches the node; a
// body whose threads match the cached entry but which the node rejects
// (a duplicate key, trailing bytes) is forwarded and answered 400,
// never served from the cache.
func TestRelayCacheKeysWireBytes(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-cache", "shared", "-probe-interval", "1h")
	const (
		t0 = `{"kind": "linear", "slope": 1.5}`
		t1 = `{"kind": "log", "scale": 2, "shift": 1}`
		t2 = `{"kind": "linear", "slope": 0.5}`
		t3 = `{"kind": "power", "scale": 1, "beta": 0.5}`
	)
	body := func(head string, threads ...string) string {
		return "{" + head + `"threads": [` + strings.Join(threads, ", ") + "]}"
	}
	first := body(`"m": 2, "c": 10, `, t0, t1, t2, t3)
	resp, answer := postBody(t, addr, "", first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve = %d", resp.StatusCode)
	}

	// The hit is the first answer, thread j of the permuted body getting
	// what thread order[j] of the first got, in encoding/json's bytes.
	permuted, order := body(`"c": 10, "m": 2, `, t3, t1, t0, t2), []int{3, 1, 0, 2}
	var a instio.AssignmentJSON
	if err := json.Unmarshal([]byte(answer), &a); err != nil {
		t.Fatal(err)
	}
	want := instio.AssignmentJSON{Utility: a.Utility, Bound: a.Bound}
	for _, i := range order {
		want.Server = append(want.Server, a.Server[i])
		want.Alloc = append(want.Alloc, a.Alloc[i])
	}
	var enc strings.Builder
	e := json.NewEncoder(&enc)
	e.SetIndent("", "  ")
	if err := e.Encode(want); err != nil {
		t.Fatal(err)
	}
	reqs := n.requests.Load()
	resp, hit := postBody(t, addr, "", permuted)
	if resp.StatusCode != http.StatusOK || n.requests.Load() != reqs {
		t.Fatalf("permuted repeat = %d, node requests %d -> %d; want a relay hit", resp.StatusCode, reqs, n.requests.Load())
	}
	if hit != enc.String() {
		t.Fatalf("relay hit is not the first answer permuted:\n%q\n%q", hit, enc.String())
	}

	solves := n.solves.Load()
	respelled := body(`"m": 2, "c": 10, `, `{"kind": "linear", "slope": 15e-1}`, t1, t2, t3)
	resp, again := postBody(t, addr, "", respelled)
	if resp.StatusCode != http.StatusOK || n.solves.Load() != solves+1 {
		t.Fatalf("respelled thread = %d, node solves %d -> %d; want a miss the node solves", resp.StatusCode, solves, n.solves.Load())
	}
	if again != answer {
		t.Fatalf("the respelled curve got another answer:\n%q\n%q", again, answer)
	}

	for _, bad := range []string{
		body(`"m": 2, "c": 10, "m": 2, `, t0, t1, t2, t3),
		first + " x",
		first + "{}",
	} {
		reqs := n.requests.Load()
		resp, got := postBody(t, addr, "", bad)
		if resp.StatusCode != http.StatusBadRequest || n.requests.Load() != reqs+1 {
			t.Fatalf("%s: status %d (%q), node requests %d -> %d; want the node's 400", bad, resp.StatusCode, got, reqs, n.requests.Load())
		}
	}
}

// TestRelayPassesNonFiniteThrough: the node's 422 for an answer that
// overflows float64 reaches the client as is and is never cached.
func TestRelayPassesNonFiniteThrough(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-cache", "shared", "-probe-interval", "1h")
	const inst = `{"m":1,"c":1e308,"threads":[{"kind":"linear","slope":1e308}]}`
	for i := 1; i <= 2; i++ {
		resp, body := postBody(t, addr, "", inst)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body, "non-finite") {
			t.Fatalf("request %d: status %d, body %q; want the node's 422", i, resp.StatusCode, body)
		}
		if got := n.requests.Load(); got != int64(i) {
			t.Fatalf("request %d reached the node %d times in all; want every one", i, got)
		}
	}
}

func TestRelayBatchPipe(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-probe-interval", "1h")

	resp, err := http.Post("http://"+addr+"/solve/batch", "application/json",
		strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch via relay = %d", resp.StatusCode)
	}
	if string(body) != "[\n  {\"batch\": true}\n]\n" {
		t.Fatalf("batch bytes not piped verbatim: %q", body)
	}
}

func TestRelayBackendsProxy(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-probe-interval", "1h")
	resp, err := http.Get("http://" + addr + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "assign2") {
		t.Fatalf("/backends proxy: %q", body)
	}
}

func TestRelayFlagValidation(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0"}, io.Discard, nil); err == nil {
		t.Fatal("run without -nodes succeeded")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-nodes", "a:1", "-strategy", "least-loaded"}, io.Discard, nil); err == nil {
		t.Fatal("run with the removed -strategy flag succeeded")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-nodes", "a:1*2"}, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "weights are gone") {
		t.Fatalf("run with a weighted node = %v, want the weights-are-gone error", err)
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-nodes", ",,,"}, io.Discard, nil); err == nil {
		t.Fatal("run with empty node list succeeded")
	}
}

// TestRelayRejectsUnknownCacheMode: a mistyped -cache fails the way
// aaserve's does instead of starting a shared cache.
func TestRelayRejectsUnknownCacheMode(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-nodes", "a:1", "-cache", "bogus"}, io.Discard, ready)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Fatalf("run with -cache bogus = %v, want cache.New's unknown-mode error", err)
		}
	case addr := <-ready:
		t.Fatalf("relay started on %s with -cache bogus", addr)
	case <-time.After(10 * time.Second):
		t.Fatal("run with -cache bogus neither failed nor started")
	}
}

// TestRelayBodyLimit: the /solve body cap holds whether the body
// declares its length (rejected before a byte is read) or arrives
// chunked, both with the node's typed 413, and a body within it is
// forwarded whole.
func TestRelayBodyLimit(t *testing.T) {
	n := newFakeNode(t)
	addr := startRelay(t, "-nodes", n.addr(), "-max-body-bytes", strconv.Itoa(len(demoInstance)), "-probe-interval", "1h")
	if resp, body := postSolve(t, addr, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the cap = %d: %s", resp.StatusCode, body)
	}
	big := demoInstance + " "
	for _, chunked := range []bool{false, true} {
		var r io.Reader = strings.NewReader(big)
		if chunked {
			r = io.MultiReader(r) // hides the length, so the client sends it chunked
		}
		resp, err := http.Post("http://"+addr+"/solve", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Code  string `json:"code"`
			Limit int64  `json:"limitBytes"`
			Size  int64  `json:"sizeBytes"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil {
			t.Fatalf("body over the cap (chunked %v) = %d (decode %v), want a typed 413", chunked, resp.StatusCode, err)
		}
		// A declared length is reported back; a chunked body has none.
		size := int64(len(big))
		if chunked {
			size = 0
		}
		if e.Code != "body_too_large" || e.Limit != int64(len(demoInstance)) || e.Size != size {
			t.Fatalf("413 body (chunked %v) = %+v, want code body_too_large, limitBytes %d, sizeBytes %d",
				chunked, e, len(demoInstance), size)
		}
	}
}

// TestRelayReadBodyPrealloc: a declared Content-Length sizes the buffer
// only up to maxPrealloc, so a client that declares a large body and
// sends nothing pins at most about 1 MiB per connection.
func TestRelayReadBodyPrealloc(t *testing.T) {
	if maxPrealloc > 1<<20 {
		t.Fatalf("maxPrealloc = %d, want <= 1 MiB", maxPrealloc)
	}
	for _, declared := range []int64{64 << 20, 1 << 30} {
		r := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(""))
		r.ContentLength = declared
		body, err := readBody(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != 0 || cap(body) > maxPrealloc+bytes.MinRead {
			t.Fatalf("declared %d, sent 0: buffer len %d cap %d, want cap <= %d",
				declared, len(body), cap(body), maxPrealloc+bytes.MinRead)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(demoInstance))
	body, err := readBody(r)
	if err != nil || string(body) != demoInstance {
		t.Fatalf("readBody = %q, %v", body, err)
	}
}

// TestRelayRejectsCacheWarmK: the relay runs no engine, so it has no
// warm-start bound; -cache-warm-k is an unknown flag there, not one
// accepted and ignored.
func TestRelayRejectsCacheWarmK(t *testing.T) {
	err := run([]string{"-addr", "127.0.0.1:0", "-nodes", "a:1", "-cache-warm-k", "8"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cache-warm-k") {
		t.Fatalf("aarelay -cache-warm-k 8 = %v, want a flag error", err)
	}
}
