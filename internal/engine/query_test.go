package engine

import (
	"net/url"
	"strings"
	"testing"
	"time"

	"aa/internal/cache"
)

// TestParseQueryAndKeyParams pins the /solve query contract node and
// relay share: what ParseQuery fills in, which queries it rejects, and
// the cache.Params KeyParams derives. For every named backend the key of
// the unresolved request (what a relay sees) equals the key of the same
// request after the engine resolved its backend (what the engine's cache
// layer sees).
func TestParseQueryAndKeyParams(t *testing.T) {
	accepted := []struct {
		name     string
		query    string
		want     Request
		deadline time.Duration
		key      cache.Params
		keyOK    bool
	}{
		{name: "absent backend keys under empty name with its seed", query: "",
			want: Request{Seed: 1}, key: cache.Params{Seed: 1}, keyOK: true},
		{name: "absent backend with a seed", query: "seed=9",
			want: Request{Seed: 9}, key: cache.Params{Seed: 9}, keyOK: true},
		{name: "alias resolves to the canonical name", query: "backend=a2",
			want: Request{Backend: "a2", Seed: 1}, key: cache.Params{Backend: "assign2"}, keyOK: true},
		{name: "deterministic backend drops the seed", query: "backend=assign2&seed=7",
			want: Request{Backend: "assign2", Seed: 7}, key: cache.Params{Backend: "assign2"}, keyOK: true},
		{name: "stochastic backend keeps the seed", query: "backend=ur&seed=7",
			want: Request{Backend: "ur", Seed: 7}, key: cache.Params{Backend: "ur", Seed: 7}, keyOK: true},
		{name: "stochastic backend default seed", query: "backend=rr",
			want: Request{Backend: "rr", Seed: 1}, key: cache.Params{Backend: "rr", Seed: 1}, keyOK: true},
		{name: "maxnodes", query: "backend=exact&maxnodes=500",
			want: Request{Backend: "exact", Seed: 1, MaxNodes: 500}, key: cache.Params{Backend: "exact", MaxNodes: 500}, keyOK: true},
		{name: "deadline is not part of the key", query: "backend=a2&deadline=250ms",
			want: Request{Backend: "a2", Seed: 1}, deadline: 250 * time.Millisecond, key: cache.Params{Backend: "assign2"}, keyOK: true},
		{name: "check=1", query: "backend=a2&check=1",
			want: Request{Backend: "a2", Seed: 1, Check: true}, key: cache.Params{Backend: "assign2"}, keyOK: true},
		{name: "check other than 1 is off", query: "check=true",
			want: Request{Seed: 1}, key: cache.Params{Seed: 1}, keyOK: true},
		{name: "cache=bypass", query: "backend=a2&cache=bypass",
			want: Request{Backend: "a2", Seed: 1, NoCache: true}, key: cache.Params{Backend: "assign2"}, keyOK: true},
		{name: "unknown backend parses but has no key", query: "backend=bogus",
			want: Request{Backend: "bogus", Seed: 1}},
	}
	for _, tc := range accepted {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var req Request
			deadline, err := ParseQuery(q, &req)
			if err != nil {
				t.Fatalf("ParseQuery(%q) = %v", tc.query, err)
			}
			if req != tc.want || deadline != tc.deadline {
				t.Fatalf("ParseQuery(%q) = %+v, %v; want %+v, %v", tc.query, req, deadline, tc.want, tc.deadline)
			}
			key, ok := KeyParams(&req)
			if ok != tc.keyOK || key != tc.key {
				t.Fatalf("KeyParams(%q) = %+v, %v; want %+v, %v", tc.query, key, ok, tc.key, tc.keyOK)
			}
			if req.Backend == "" || !ok {
				return
			}
			req.bk, _ = Lookup(req.Backend)
			if resolved, _ := KeyParams(&req); resolved != key {
				t.Fatalf("KeyParams(%q) resolved = %+v, unresolved %+v", tc.query, resolved, key)
			}
		})
	}

	rejected := []struct {
		name  string
		query string
		err   string
	}{
		{name: "bad seed", query: "backend=a2&seed=bogus", err: `bad seed "bogus"`},
		{name: "negative seed", query: "seed=-1", err: `bad seed "-1"`},
		{name: "bad maxnodes", query: "maxnodes=lots", err: `bad maxnodes "lots"`},
		{name: "bad deadline", query: "backend=a2&deadline=bogus", err: `bad deadline "bogus"`},
		{name: "negative deadline", query: "backend=a2&deadline=-1s", err: `bad deadline "-1s"`},
		{name: "zero deadline", query: "deadline=0s", err: `bad deadline "0s"`},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var req Request
			if _, err := ParseQuery(q, &req); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("ParseQuery(%q) = %v, want an error containing %s", tc.query, err, tc.err)
			}
		})
	}
}
