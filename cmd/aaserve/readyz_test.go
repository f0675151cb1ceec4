package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aa/internal/engine"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/router"
	"aa/internal/serveutil"
)

// TestReadyzQueueDepthSteersRouting: a node's /readyz carries its solve
// queue depth, and that header is the relay's load signal. Two aaserve
// muxes share this process's metrics history, which is off (a 404)
// unless another test started it and never holds a per-node depth;
// with the first node's queue filled, the router's next pick must be
// the second node, not the first in configuration order.
func TestReadyzQueueDepthSteersRouting(t *testing.T) {
	busyEng := engine.New(engine.Options{Backend: "a2", Workers: 1, QueueDepth: 8})
	t.Cleanup(busyEng.Close)
	idleEng := engine.New(engine.Options{Backend: "a2", Workers: 1})
	t.Cleanup(idleEng.Close)
	busy := httptest.NewServer((&server{eng: busyEng}).mux())
	t.Cleanup(busy.Close)
	idle := httptest.NewServer((&server{eng: idleEng}).mux())
	t.Cleanup(idle.Close)
	addr := func(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

	// Branch-and-bound solves that run until cancelled: one holds the
	// busy node's only worker, three wait in its queue.
	in, err := gen.Instance(gen.PowerLaw{Alpha: 2, Xmin: 1}, 4, 1000, 26, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = busyEng.Submit(ctx, &engine.Request{Instance: in, Backend: "exact"})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); busyEng.QueueDepth() != 3; {
		if time.Now().After(deadline) {
			t.Fatalf("busy node's queue depth %d, want 3", busyEng.QueueDepth())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(busy.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serveutil.HeaderQueueDepth); resp.StatusCode != http.StatusOK || got != "3" {
		t.Fatalf("/readyz = %d with %s %q, want 200 with 3", resp.StatusCode, serveutil.HeaderQueueDepth, got)
	}

	rt, err := router.New([]router.Node{{Name: "busy", Addr: addr(busy)}, {Name: "idle", Addr: addr(idle)}})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow()
	if st := rt.Snapshot(); st[0].Depth != 3 || st[1].Depth != 0 {
		t.Fatalf("probed depths busy=%d idle=%d, want 3 and 0", st[0].Depth, st[1].Depth)
	}
	n, err := rt.Pick(nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Done(n.Addr)
	if n.Name != "idle" {
		t.Fatalf("picked %s, want the idle node", n.Name)
	}
}
