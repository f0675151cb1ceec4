package router

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aa/internal/serveutil"
)

func mustNew(t *testing.T, nodes ...Node) *Router {
	t.Helper()
	r, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// setProbe overwrites a node's state and depth as a probe answer would.
func setProbe(r *Router, addr string, state State, depth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.byAddr(addr)
	n.state, n.depth = state, depth
}

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes("n1=10.0.0.1:8080, 10.0.0.2:8080 ,n3=10.0.0.3:8080")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "n1", Addr: "10.0.0.1:8080"},
		{Addr: "10.0.0.2:8080"},
		{Name: "n3", Addr: "10.0.0.3:8080"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "n1="} {
		if _, err := ParseNodes(bad); err == nil {
			t.Errorf("ParseNodes(%q) accepted", bad)
		}
	}
	// The old weight suffix is an error naming its removal, not an
	// address the prober would find down forever.
	for _, weighted := range []string{"a:1*2", "n1=a:1*x,b:1"} {
		if _, err := ParseNodes(weighted); err == nil || !strings.Contains(err.Error(), "weights are gone") {
			t.Errorf("ParseNodes(%q) = %v, want the weights-are-gone error", weighted, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New accepted an empty node set")
	}
	if _, err := New([]Node{{Addr: ""}}); err == nil {
		t.Error("New accepted an empty address")
	}
	if _, err := New([]Node{{Addr: "a:1"}, {Addr: "a:1"}}); err == nil {
		t.Error("New accepted duplicate addresses")
	}
	// Defaults: name = addr, state ready.
	r := mustNew(t, Node{Addr: "a:1"})
	st := r.Snapshot()[0]
	if st.Name != "a:1" || st.State != Ready {
		t.Fatalf("defaults not applied: %+v", st)
	}
}

// TestPickSkipsUnready: a down node takes nothing, and the relay's own
// in-flight count alternates equal-depth nodes.
func TestPickSkipsUnready(t *testing.T) {
	r := mustNew(t, Node{Addr: "a:1"}, Node{Addr: "b:1"}, Node{Addr: "c:1"})
	setProbe(r, "b:1", Down, 0)
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		n, err := r.Pick(nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[n.Addr]++
	}
	if seen["b:1"] != 0 || seen["a:1"] != 2 || seen["c:1"] != 2 {
		t.Fatalf("distribution %v, want a and c only", seen)
	}
}

func TestPickExcludeAndExhaustion(t *testing.T) {
	r := mustNew(t, Node{Addr: "a:1"}, Node{Addr: "b:1"})
	n1, err := r.Pick(map[string]bool{"a:1": true})
	if err != nil || n1.Addr != "b:1" {
		t.Fatalf("Pick with a excluded = %v, %v; want b", n1.Addr, err)
	}
	_, err = r.Pick(map[string]bool{"a:1": true, "b:1": true})
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("exhausted Pick error = %v, want ErrNoNodes", err)
	}
	setProbe(r, "a:1", Draining, 0)
	setProbe(r, "b:1", Down, 0)
	if _, err := r.Pick(nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("all-unready Pick error = %v, want ErrNoNodes", err)
	}
}

func TestLeastLoadedUsesDepthAndInflight(t *testing.T) {
	r := mustNew(t, Node{Addr: "a:1"}, Node{Addr: "b:1"}, Node{Addr: "c:1"})
	setProbe(r, "a:1", Ready, 5)
	setProbe(r, "b:1", Ready, 1)
	setProbe(r, "c:1", Ready, 3)
	n, _ := r.Pick(nil)
	if n.Addr != "b:1" {
		t.Fatalf("picked %s, want least-loaded b:1", n.Addr)
	}
	// b now has depth 1 + 1 in flight = 2; next pick still b (2 < 3 < 5).
	n2, _ := r.Pick(nil)
	if n2.Addr != "b:1" {
		t.Fatalf("second pick %s, want b:1", n2.Addr)
	}
	// Third pick: b at 3 ties c at 3 and config order keeps b (strict <),
	// pushing b to 4; the fourth pick shifts to c.
	n3, _ := r.Pick(nil)
	if n3.Addr != "b:1" {
		t.Fatalf("tie-break pick = %s, want b:1 (config order)", n3.Addr)
	}
	n4, _ := r.Pick(nil)
	if n4.Addr != "c:1" {
		t.Fatalf("pick after piling in-flight on b = %s, want c:1", n4.Addr)
	}
	// Done releases in-flight: b returns to depth 1 and wins again.
	for _, addr := range []string{"b:1", "b:1", "b:1"} {
		r.Done(addr)
	}
	n5, _ := r.Pick(nil)
	if n5.Addr != "b:1" {
		t.Fatalf("pick after Done = %s, want b:1", n5.Addr)
	}
}

func TestObserveFailureMarksDownAndSnapshot(t *testing.T) {
	r := mustNew(t, Node{Name: "n1", Addr: "a:1"}, Node{Addr: "b:1"})
	r.ObserveFailure("a:1")
	r.ObserveFailure("missing:1") // unknown addr: no-op, no panic
	st := r.Snapshot()
	if st[0].State != Down || st[0].Failures != 1 {
		t.Fatalf("snapshot[0] = %+v, want down with 1 failure", st[0])
	}
	if st[1].State != Ready {
		t.Fatalf("snapshot[1] = %+v, want ready", st[1])
	}
	// A successful probe resets the failure streak.
	f := newFakeNode(t)
	r = mustNew(t, Node{Addr: f.addr()})
	r.ObserveFailure(f.addr())
	r.ProbeNow()
	if st := r.Snapshot()[0]; st.State != Ready || st.Failures != 0 {
		t.Fatalf("post-recovery snapshot = %+v", st)
	}
}

// fakeNode is a minimal aaserve stand-in: /readyz with a switchable
// status and AA-Queue-Depth header, and a count of every request it
// gets, by method and path.
type fakeNode struct {
	mu    sync.Mutex
	ready int
	depth string // AA-Queue-Depth header value; "" sends none
	hits  map[string]int
	srv   *httptest.Server
}

func newFakeNode(t *testing.T) *fakeNode {
	f := &fakeNode{ready: http.StatusOK, hits: map[string]int{}}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits[r.Method+" "+r.URL.Path]++
		code, depth := f.ready, f.depth
		f.mu.Unlock()
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if depth != "" {
			w.Header().Set(serveutil.HeaderQueueDepth, depth)
		}
		w.WriteHeader(code)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeNode) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeNode) set(ready int, depth string) {
	f.mu.Lock()
	f.ready, f.depth = ready, depth
	f.mu.Unlock()
}

// requests returns the node's request counts and resets them.
func (f *fakeNode) requests() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	hits := f.hits
	f.hits = map[string]int{}
	return hits
}

func TestProbeNow(t *testing.T) {
	up := newFakeNode(t)
	up.set(http.StatusOK, "7")
	draining := newFakeNode(t)
	draining.set(http.StatusServiceUnavailable, "0")
	noDepth := newFakeNode(t)
	garbled := newFakeNode(t)
	garbled.set(http.StatusOK, "lots")
	down := newFakeNode(t)
	downAddr := down.addr()
	down.srv.Close() // transport-level refusal
	live := []*fakeNode{up, draining, noDepth, garbled}

	r := mustNew(t,
		Node{Name: "up", Addr: up.addr()},
		Node{Name: "draining", Addr: draining.addr()},
		Node{Name: "nodepth", Addr: noDepth.addr()},
		Node{Name: "garbled", Addr: garbled.addr()},
		Node{Name: "down", Addr: downAddr})
	r.ProbeNow()

	byName := map[string]NodeStatus{}
	for _, s := range r.Snapshot() {
		byName[s.Name] = s
	}
	if s := byName["up"]; s.State != Ready || s.Depth != 7 || s.LastProbe.IsZero() {
		t.Fatalf("up = %+v, want ready depth 7", s)
	}
	if s := byName["draining"]; s.State != Draining {
		t.Fatalf("draining = %+v, want draining", s)
	}
	for _, name := range []string{"nodepth", "garbled"} {
		if s := byName[name]; s.State != Ready || s.Depth != 0 {
			t.Fatalf("%s = %+v, want ready depth 0 (no usable header)", name, s)
		}
	}
	if s := byName["down"]; s.State != Down {
		t.Fatalf("down = %+v, want down", s)
	}
	// One sweep is one GET /readyz per node and nothing else.
	for i, f := range live {
		if hits := f.requests(); len(hits) != 1 || hits["GET /readyz"] != 1 {
			t.Fatalf("node %d got %v in one sweep, want exactly one GET /readyz", i, hits)
		}
	}

	// Recovery and state changes propagate on the next sweep.
	draining.set(http.StatusOK, "2")
	up.set(http.StatusOK, "")
	r.ProbeNow()
	if s := r.Snapshot()[1]; s.State != Ready || s.Depth != 2 {
		t.Fatalf("recovered draining node = %+v", s)
	}
	if s := r.Snapshot()[0]; s.Depth != 0 {
		t.Fatalf("up node that stopped reporting a depth = %+v, want depth 0", s)
	}
}

func TestStartProberSweeps(t *testing.T) {
	f := newFakeNode(t)
	f.set(http.StatusOK, "4")
	r := mustNew(t, Node{Addr: f.addr()})
	r.StartProber(10 * time.Millisecond)
	defer r.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if s := r.Snapshot()[0]; s.Depth == 4 && s.State == Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never refreshed: %+v", r.Snapshot()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.set(http.StatusServiceUnavailable, "0")
	deadline = time.Now().Add(3 * time.Second)
	for {
		if s := r.Snapshot()[0]; s.State == Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never saw the drain: %+v", r.Snapshot()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestStopWithoutProber(t *testing.T) {
	r := mustNew(t, Node{Addr: "a:1"})
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without StartProber blocked")
	}
}

func TestConcurrentPickDone(t *testing.T) {
	r := mustNew(t, Node{Addr: "a:1"}, Node{Addr: "b:1"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n, err := r.Pick(nil)
				if err != nil {
					t.Error(err)
					return
				}
				r.Done(n.Addr)
			}
		}()
	}
	wg.Wait()
	for _, s := range r.Snapshot() {
		if s.InFlight != 0 {
			t.Fatalf("in-flight leaked: %+v", s)
		}
	}
	r.Done("a:1") // over-release: clamps at 0, no panic
	if s := r.Snapshot()[0]; s.InFlight != 0 {
		t.Fatalf("Done underflowed: %+v", s)
	}
}
