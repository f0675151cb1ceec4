package engine

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"aa/internal/cache"
)

// ParseQuery is the one parser of the /solve and /solve/batch query,
// shared by aaserve and by aarelay's cache key, so a relay hit answers
// exactly the requests a node accepts. It fills req from q and returns
// the deadline, 0 when q names none:
//
//	backend   registry name or alias; absent leaves req.Backend ""
//	seed      uint64 seed for the stochastic backends (default 1)
//	maxnodes  node budget for backend=exact
//	check     "1" sets req.Check
//	cache     "bypass" sets req.NoCache
//	deadline  a positive duration like "500ms"
//
// A malformed seed, maxnodes or deadline is an error naming the key and
// its value. An unknown backend is left to the engine
// (ErrUnknownBackend) and to KeyParams.
func ParseQuery(q url.Values, req *Request) (time.Duration, error) {
	req.Backend = q.Get("backend")
	req.Seed = 1
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad seed %q", v)
		}
		req.Seed = seed
	}
	if v := q.Get("maxnodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad maxnodes %q", v)
		}
		req.MaxNodes = n
	}
	req.Check = q.Get("check") == "1"
	req.NoCache = q.Get("cache") == "bypass"
	var deadline time.Duration
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("bad deadline %q", v)
		}
		deadline = d
	}
	return deadline, nil
}

// KeyParams is the one cache-key rule: the request fields that alter a
// backend's output, with the seed folded in only for stochastic
// backends. The engine's cache layer calls it with the backend resolved;
// a relay calls it before any node has, so a request naming no backend
// is keyed under "" with its seed (the relay cannot know the nodes'
// default), and an unknown backend reports ok false (uncacheable).
func KeyParams(req *Request) (p cache.Params, ok bool) {
	bk := req.bk
	if bk == nil && req.Backend != "" {
		if bk, ok = Lookup(req.Backend); !ok {
			return cache.Params{}, false
		}
	}
	p = cache.Params{MaxNodes: req.MaxNodes, MaxMoves: req.MaxMoves, Alt: req.AltAssign1, Seed: req.Seed}
	if bk != nil {
		p.Backend = bk.Name
		if !bk.Stochastic {
			p.Seed = 0
		}
	}
	return p, true
}
