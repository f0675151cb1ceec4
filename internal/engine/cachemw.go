package engine

import (
	"context"
	"math"

	"aa/internal/cache"
	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/telemetry"
)

// withSolveCache is the solve-result cache middleware (Options.Cache).
// It sits between the caller middleware and withCheck, so every miss
// that reaches dispatch is still fully verified before this layer sees
// (and stores) its response. Three outcomes per request:
//
//   - exact hit: the key (instance fingerprint + output-relevant request
//     params) is cached; the stored assignment is served back through
//     the request's own thread permutation, byte-identical to the
//     populating solve's output. The inner chain — including withCheck —
//     never runs: entries were check.Feasible-verified when stored.
//
//   - warm start: the key missed, but a recent entry for the same
//     (m, C, backend) group differs by at most warmK threads per side
//     under a canonical diff. The cached assignment seeds
//     core.Assign2Warm (λ-search warm-started from the cached price,
//     only changed threads re-placed); the repaired result must pass
//     feasibility AND the α-ratio bound against its own warm F̂, else
//     the middleware falls back to a cold solve as if nothing matched.
//
//   - miss: the inner chain solves; the verified response is stored.
//
// Requests with NoCache or an unencodable utility type bypass the cache
// entirely.
func withSolveCache(c cache.Cache, warmK int) Middleware {
	return func(next Handler) Handler {
		return func(ctx context.Context, req *Request, resp *Response) error {
			ctx, sp := stageCache.Start(ctx)
			outcome, err := cacheSolve(ctx, c, warmK, next, req, resp)
			sp.Str("outcome", outcome)
			sp.Bool("ok", err == nil)
			sp.End()
			return err
		}
	}
}

// cacheSolve runs one request through the cache layer and reports the
// outcome for the engine.cache span.
func cacheSolve(ctx context.Context, c cache.Cache, warmK int, next Handler, req *Request, resp *Response) (string, error) {
	if req.NoCache {
		c.NoteBypass()
		return "bypass", next(ctx, req, resp)
	}
	canon, err := cache.CanonicalizeKeyed(req.Instance, c.HashKey())
	if err != nil {
		// A utility type without a stable encoding: solve uncached.
		return "uncacheable", next(ctx, req, resp)
	}
	p, _ := KeyParams(req) // the backend is resolved, so always ok
	key := cache.RequestKey(canon.Fingerprint(), p)
	if e, ok := c.Get(key); ok {
		serveEntry(e, canon, req, resp)
		return "hit", nil
	}
	group := canon.GroupKey(req.bk.Name)
	if warmK > 0 && req.bk.Name == "assign2" && !req.AltAssign1 {
		if warmSolve(ctx, c, canon, key, group, warmK, req, resp) {
			return "warm", nil
		}
	}
	if err := next(ctx, req, resp); err != nil {
		return "miss", err
	}
	storeEntry(c, canon, key, group, req, resp, false)
	return "miss", nil
}

// serveEntry materializes a cached entry into resp, un-permuting the
// canonically ordered assignment through the request's own Perm
// (Canonical.FromCanonical).
func serveEntry(e *cache.Entry, canon *cache.Canonical, req *Request, resp *Response) {
	n := len(canon.Perm)
	resp.Assignment.Reset(n)
	canon.FromCanonical(resp.Assignment.Server, resp.Assignment.Alloc, e.Server, e.Alloc)
	if req.AltAssign1 && e.AltServer != nil {
		resp.Alt.Reset(n)
		canon.FromCanonical(resp.Alt.Server, resp.Alt.Alloc, e.AltServer, e.AltAlloc)
	}
	resp.Bound = e.Bound
	resp.Lambda = e.Lambda
	resp.Moves = e.Moves
	if req.WantUtility {
		// Prefer the populating solve's value; compute only when the
		// populating request never asked for one.
		resp.Utility = e.Utility
		if math.IsNaN(resp.Utility) {
			resp.Utility = resp.Assignment.Utility(req.Instance)
		}
		if req.AltAssign1 {
			resp.AltUtility = e.AltUtility
			if math.IsNaN(resp.AltUtility) && e.AltServer != nil {
				resp.AltUtility = resp.Alt.Utility(req.Instance)
			}
		}
	}
}

// storeEntry copies a verified response into canonical thread order and
// stores it. Responses that fail check.Feasible are never cached — a
// broken backend must not poison every future request with its output.
// Callers that ran the feasibility check themselves moments earlier (the
// warm path) pass verified to skip re-checking the same response.
func storeEntry(c cache.Cache, canon *cache.Canonical, key cache.Key, group uint64, req *Request, resp *Response, verified bool) {
	n := len(canon.Perm)
	if len(resp.Assignment.Server) != n || len(resp.Assignment.Alloc) != n {
		return // assignment does not cover the instance; never cache it
	}
	if !verified && check.Feasible(req.Instance, resp.Assignment, check.DefaultEps) != nil {
		return
	}
	e := &cache.Entry{
		Canon:   canon,
		Utility: resp.Utility,
		Bound:   resp.Bound,
		Lambda:  resp.Lambda,
		Moves:   resp.Moves,
		Backend: resp.Backend,
	}
	e.Server, e.Alloc = canon.ToCanonical(resp.Assignment.Server, resp.Assignment.Alloc)
	if req.AltAssign1 && len(resp.Alt.Server) == n {
		e.AltServer, e.AltAlloc = canon.ToCanonical(resp.Alt.Server, resp.Alt.Alloc)
		e.AltUtility = resp.AltUtility
	} else {
		e.AltUtility = math.NaN()
	}
	c.Put(key, group, e)
}

// warmSolve attempts the warm-start repair against the most recent
// compatible candidate. Only the first candidate passing the diff
// filter is tried — each attempt costs a (cheap but real) solve, so a
// failed repair falls back to cold rather than iterating.
func warmSolve(ctx context.Context, c cache.Cache, canon *cache.Canonical, key cache.Key, group uint64, warmK int, req *Request, resp *Response) bool {
	n := len(canon.Perm)
	for _, e := range c.Candidates(group, nil) {
		if e.Canon == nil || !(e.Lambda > 0) || e.Backend != req.bk.Name {
			continue
		}
		if d := len(e.Canon.Hashes) - n; d > warmK || d < -warmK {
			continue
		}
		matched, onlyA, onlyB := cache.Diff(e.Canon, canon)
		if len(onlyA) > warmK || len(onlyB) > warmK {
			continue
		}
		// Remap the cached placements onto the request's thread order;
		// unmatched threads stay -1 for the repair pass to place.
		seed := core.WarmSeed{
			Lambda: e.Lambda,
			Server: make([]int, n),
			Alloc:  make([]float64, n),
		}
		for i := range seed.Server {
			seed.Server[i] = -1
		}
		for _, pr := range matched {
			orig := canon.Perm[pr[1]]
			seed.Server[orig] = e.Server[pr[0]]
			seed.Alloc[orig] = e.Alloc[pr[0]]
		}
		w := core.GetWorkspace()
		if telemetry.TraceEnabled() {
			w.SetSpanContext(telemetry.SpanFromContext(ctx))
		}
		so := w.Assign2Warm(req.Instance, seed, &resp.Assignment)
		core.PutWorkspace(w)
		// The repair drops Algorithm 2's worst-case guarantee, so the
		// result must re-earn it empirically: feasibility plus the
		// α-bound against its own (conservative) warm F̂. Either failing
		// is the hard fallback to a cold solve. Probe variants keep
		// these recoverable rejections out of aa_check_violations_total.
		if check.ProbeFeasible(req.Instance, resp.Assignment, check.DefaultEps) != nil {
			return false
		}
		rep := check.RatioAgainst(so.Total, req.Instance, resp.Assignment)
		if rep.ProbeAlpha(0) != nil {
			return false
		}
		resp.Bound = so.Total
		resp.Lambda = so.Lambda
		if req.WantUtility {
			resp.Utility = rep.F
		}
		c.NoteWarmStart()
		// Store the verified warm result under its own key: the next
		// identical request is then an exact hit, and further drift can
		// warm-start from this entry's fresher price.
		storeEntry(c, canon, key, group, req, resp, true)
		return true
	}
	return false
}
