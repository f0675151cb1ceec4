package main

// Service-level cache tests: a repeated /solve of the same instance is
// served from the cache byte-identically, and ?cache=bypass forces a
// fresh solve without touching the cache.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"aa/internal/cache"
	"aa/internal/engine"
)

func newCachedTestServer(t *testing.T) (*httptest.Server, cache.Cache) {
	t.Helper()
	c, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Backend: "a2", Workers: 2, Cache: c, WarmK: 8})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer((&server{eng: eng}).mux())
	t.Cleanup(ts.Close)
	return ts, c
}

func TestSolveCacheHitByteIdentical(t *testing.T) {
	ts, c := newCachedTestServer(t)
	resp1, body1 := postSolve(t, ts, "/solve", demoInstance)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postSolve(t, ts, "/solve", demoInstance)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from populating one:\n%s\nvs\n%s", body1, body2)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss / 1 store", st)
	}
}

func TestSolveCacheBypass(t *testing.T) {
	ts, c := newCachedTestServer(t)
	for i := 0; i < 2; i++ {
		resp, body := postSolve(t, ts, "/solve?cache=bypass", demoInstance)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bypass solve %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	st := c.Stats()
	if st.Bypasses != 2 || st.Hits != 0 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("bypassed requests touched the cache: %+v", st)
	}
	// A normal request afterwards misses — the bypasses stored nothing.
	if resp, body := postSolve(t, ts, "/solve", demoInstance); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-bypass solve: %d: %s", resp.StatusCode, body)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats after bypasses + one normal solve: %+v", st)
	}
}
