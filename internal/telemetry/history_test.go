package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// startTestHistory starts a history on a fresh registry with an
// interval long enough that only explicit TakeSnapshot calls (plus the
// immediate startup snapshot) populate the ring.
func startTestHistory(t *testing.T, capacity int) (*Registry, *History) {
	t.Helper()
	r := NewRegistry()
	h := r.startHistory(time.Hour, capacity)
	t.Cleanup(h.Stop)
	// Wait out the startup snapshot so counts below are deterministic.
	waitFor(t, func() bool { return len(h.Snapshots()) >= 1 })
	return r, h
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHistoryRecordsAndReduces(t *testing.T) {
	r, h := startTestHistory(t, 8)
	c := r.Counter("aa_test_ops_total")
	g := r.Gauge("aa_test_depth")
	hist := r.Histogram("aa_test_latency_seconds", []float64{0.1, 1})

	c.Add(3)
	g.Set(7)
	for i := 0; i < 10; i++ {
		hist.Observe(0.05)
	}
	h.TakeSnapshot()

	snaps := h.Snapshots()
	last := snaps[len(snaps)-1]
	if v := last.Metrics["aa_test_ops_total"]; v.Type != "counter" || v.Value != 3 {
		t.Errorf("counter reduction = %+v", v)
	}
	if v := last.Metrics["aa_test_depth"]; v.Type != "gauge" || v.Value != 7 {
		t.Errorf("gauge reduction = %+v", v)
	}
	v := last.Metrics["aa_test_latency_seconds"]
	if v.Type != "histogram" || v.Count != 10 {
		t.Errorf("histogram reduction = %+v", v)
	}
	if v.P50 <= 0 || v.P50 > 0.1 || v.P99 <= 0 || v.P99 > 0.1 {
		t.Errorf("quantile estimates out of bucket: %+v", v)
	}
	if len(snaps) >= 2 && !snaps[0].TS.Before(snaps[len(snaps)-1].TS.Add(time.Nanosecond)) {
		t.Error("snapshots not in chronological order")
	}
}

func TestHistoryRingWraps(t *testing.T) {
	r, h := startTestHistory(t, 3)
	c := r.Counter("aa_test_seq_total")
	for i := 0; i < 5; i++ {
		c.Inc()
		h.TakeSnapshot()
	}
	snaps := h.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("ring holds %d snapshots, want capacity 3", len(snaps))
	}
	// Oldest first: the retained counter values are 3, 4, 5.
	for i, want := range []float64{3, 4, 5} {
		if got := snaps[i].Metrics["aa_test_seq_total"].Value; got != want {
			t.Errorf("snapshot %d counter = %v, want %v", i, got, want)
		}
	}
}

func TestStartHistoryIsIdempotent(t *testing.T) {
	r := NewRegistry()
	h1 := r.startHistory(time.Hour, 4)
	defer h1.Stop()
	h2 := r.StartHistory(time.Minute)
	if h1 != h2 {
		t.Fatal("second StartHistory returned a different recorder")
	}
	if r.History() != h1 {
		t.Fatal("History() does not return the running recorder")
	}
	if h2.Capacity() != 4 || h2.Interval() != time.Hour {
		t.Errorf("second call's settings took effect: cap=%d interval=%v", h2.Capacity(), h2.Interval())
	}
}

func TestHistoryBackgroundTicker(t *testing.T) {
	r := NewRegistry()
	r.Counter("aa_test_bg_total").Inc()
	h := r.StartHistory(5 * time.Millisecond)
	defer h.Stop()
	waitFor(t, func() bool { return len(h.Snapshots()) >= 3 })
}

func TestHistoryHandler(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	// Not enabled yet: 404.
	resp, err := http.Get(srv.URL + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics/history before StartHistory: %d, want 404", resp.StatusCode)
	}

	h := r.startHistory(time.Hour, 8)
	defer h.Stop()
	waitFor(t, func() bool { return len(h.Snapshots()) >= 1 })
	r.Counter("aa_test_handler_total").Add(2)
	h.TakeSnapshot()
	h.TakeSnapshot()

	get := func(path string) (int, historyResponse) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body historyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics/history")
	if code != http.StatusOK {
		t.Fatalf("/metrics/history: %d", code)
	}
	if body.Capacity != 8 || body.IntervalSeconds != 3600 {
		t.Errorf("metadata = cap %d interval %v", body.Capacity, body.IntervalSeconds)
	}
	if len(body.Snapshots) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(body.Snapshots))
	}
	last := body.Snapshots[len(body.Snapshots)-1]
	if v := last.Metrics["aa_test_handler_total"]; v.Value != 2 {
		t.Errorf("last snapshot counter = %v, want 2", v.Value)
	}

	if code, body := get("/metrics/history?last=1"); code != http.StatusOK || len(body.Snapshots) != 1 {
		t.Errorf("?last=1: code %d, %d snapshots", code, len(body.Snapshots))
	}
	if code, _ := get("/metrics/history?last=bogus"); code != http.StatusBadRequest {
		t.Errorf("?last=bogus: code %d, want 400", code)
	}
}
