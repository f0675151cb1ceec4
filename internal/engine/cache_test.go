package engine

// Tests for the solve-result cache middleware: exact hits must be
// byte-identical to the populating solve (including under thread
// permutation), warm starts must hold the feasibility + α contract and
// fall back to a cold solve when the repair loses it, and bypass/store
// policies must hold.

import (
	"context"
	"math"
	"testing"

	"aa/internal/cache"
	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/utility"
)

func newCached(t *testing.T, warmK int) (*Engine, cache.Cache) {
	t.Helper()
	c, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Cache: c, WarmK: warmK}), c
}

func TestCacheExactHit(t *testing.T) {
	eng, c := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 40)[0]
	req := &Request{Instance: in, WantUtility: true}

	first, err := eng.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "exact hit", second.Assignment, first.Assignment)
	if second.Utility != first.Utility || second.Bound != first.Bound || second.Lambda != first.Lambda {
		t.Fatalf("hit scalar drift: utility %v/%v bound %v/%v lambda %v/%v",
			second.Utility, first.Utility, second.Bound, first.Bound, second.Lambda, first.Lambda)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 store", st)
	}
}

func TestCacheExactHitPermutedInstance(t *testing.T) {
	// A request whose threads are a permutation of a cached instance's
	// must hit, and each thread must receive exactly the placement the
	// populating solve gave that same utility curve.
	eng, c := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 40)[0]
	first, err := eng.Solve(ctx, &Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}

	n := in.N()
	perm := make([]int, n) // reversal: distinct from identity for any n > 1
	for i := range perm {
		perm[i] = n - 1 - i
	}
	shuffled := &core.Instance{M: in.M, C: in.C, Threads: make([]utility.Func, n)}
	for i, p := range perm {
		shuffled.Threads[i] = in.Threads[p]
	}
	second, err := eng.Solve(ctx, &Request{Instance: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("permuted request did not hit: %+v", st)
	}
	for i, p := range perm {
		if second.Assignment.Server[i] != first.Assignment.Server[p] ||
			second.Assignment.Alloc[i] != first.Assignment.Alloc[p] {
			t.Fatalf("thread %d (orig %d): got (%d, %v), want (%d, %v)",
				i, p, second.Assignment.Server[i], second.Assignment.Alloc[i],
				first.Assignment.Server[p], first.Assignment.Alloc[p])
		}
	}
}

func TestCacheHitComputesUtilityOnDemand(t *testing.T) {
	// Populating solve did not ask for utility (cached as NaN); a later
	// hit that wants it must evaluate it fresh instead of serving NaN.
	eng, _ := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 30)[0]
	if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Solve(ctx, &Request{Instance: in, WantUtility: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(hit.Utility) {
		t.Fatal("hit served NaN utility to a WantUtility request")
	}
	if want := hit.Assignment.Utility(in); hit.Utility != want {
		t.Fatalf("hit utility %v, want %v", hit.Utility, want)
	}
}

func TestCacheKeySeparatesBackendsAndParams(t *testing.T) {
	eng, c := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 30)[0]
	for _, req := range []*Request{
		{Instance: in},
		{Instance: in, Backend: "assign1"},
		{Instance: in, Backend: "ls"},
		{Instance: in, Backend: "polish"},
	} {
		if _, err := eng.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("distinct (backend, params) requests shared entries: %+v", st)
	}
	// Stochastic backends key on seed; deterministic ones ignore it.
	if _, err := eng.Solve(ctx, &Request{Instance: in, Backend: "rr", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(ctx, &Request{Instance: in, Backend: "rr", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("different seeds hit the same stochastic entry: %+v", st)
	}
	if _, err := eng.Solve(ctx, &Request{Instance: in, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("deterministic backend keyed on seed: %+v", st)
	}
}

func TestCacheNoCacheBypass(t *testing.T) {
	eng, c := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 30)[0]
	for i := 0; i < 2; i++ {
		if _, err := eng.Solve(ctx, &Request{Instance: in, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bypasses != 2 || st.Hits != 0 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("bypassed requests touched the cache: %+v", st)
	}
	// The bypassed solves stored nothing: a normal request still misses.
	if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats after bypasses + one normal solve: %+v", st)
	}
}

func TestCacheNeverStoresInfeasibleResponses(t *testing.T) {
	// An unchecked engine lets test-broken's infeasible response through
	// to the caller, but the cache must still refuse to store it.
	eng, c := newCached(t, 0)
	ctx := context.Background()
	in := corpus(t, 1, 10)[0]
	if _, err := eng.Solve(ctx, &Request{Instance: in, Backend: "test-broken"}); err != nil {
		t.Fatalf("unchecked broken solve: %v", err)
	}
	if st := c.Stats(); st.Stores != 0 {
		t.Fatalf("infeasible response was stored: %+v", st)
	}
	if _, err := eng.Solve(ctx, &Request{Instance: in, Backend: "test-broken"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("second broken solve hit a poisoned entry: %+v", st)
	}
}

// churn replaces the last k threads of in with threads drawn from donor
// (same generator distribution family, so the churned instance stays in
// distribution — the regime the warm repair is built for).
func churn(in, donor *core.Instance, k int) *core.Instance {
	out := &core.Instance{M: in.M, C: in.C, Threads: append([]utility.Func{}, in.Threads...)}
	for i := in.N() - k; i < in.N(); i++ {
		out.Threads[i] = donor.Threads[i]
	}
	return out
}

func TestCacheWarmStart(t *testing.T) {
	eng, c := newCached(t, 8)
	ctx := context.Background()
	ins := corpus(t, 4, 400)
	in, donor := ins[0], ins[3] // indices 0 and 3 share the uniform workload
	if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}

	churned := churn(in, donor, 4)
	warm, err := eng.Solve(ctx, &Request{Instance: churned})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WarmStarts != 1 {
		t.Fatalf("churned solve did not warm-start: %+v", st)
	}
	if err := check.ProbeFeasible(churned, warm.Assignment, 0); err != nil {
		t.Fatalf("warm response infeasible: %v", err)
	}
	rep := check.RatioAgainst(warm.Bound, churned, warm.Assignment)
	if err := rep.ProbeAlpha(0); err != nil {
		t.Fatalf("warm response below α against its own bound: %v (ratio %v)", err, rep.Ratio)
	}
	// Both entries, the cold one and the warm one, keep their ĉ for the
	// next warm start's first probe.
	canon, err := cache.CanonicalizeKeyed(churned, c.HashKey())
	if err != nil {
		t.Fatal(err)
	}
	entries := c.Candidates(canon.GroupKey("assign2"), nil)
	for _, e := range entries {
		if len(e.CHat) != len(e.Server) {
			t.Fatalf("entry keeps %d ĉ values for %d threads", len(e.CHat), len(e.Server))
		}
	}
	if len(entries) != 2 || len(warm.CHat) != churned.N() {
		t.Fatalf("%d entries, warm response ĉ of length %d for %d threads", len(entries), len(warm.CHat), churned.N())
	}

	// The warm result was stored under its own key: re-solving the
	// churned instance is now an exact hit, byte-identical.
	again, err := eng.Solve(ctx, &Request{Instance: churned})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("warm result not re-servable as exact hit: %+v", got)
	}
	sameAssignment(t, "warm then hit", again.Assignment, warm.Assignment)
}

func TestCacheWarmStartSkippedBeyondK(t *testing.T) {
	eng, c := newCached(t, 2)
	ctx := context.Background()
	in := corpus(t, 1, 100)[0]
	if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}
	cold := New(Options{})
	churned := churn(in, corpus(t, 4, 100)[3], 10) // 10 > k = 2: must solve cold
	got, err := eng.Solve(ctx, &Request{Instance: churned})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.WarmStarts != 0 {
		t.Fatalf("warm-started past the k bound: %+v", st)
	}
	want, err := cold.Solve(ctx, &Request{Instance: churned})
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "beyond-k cold solve", got.Assignment, want.Assignment)
}

func TestCacheWarmStartFallsBackWhenBoundTrips(t *testing.T) {
	// Adversarial churn: the cached instance packs every server to the
	// brim with small threads, then one tiny thread is swapped for a
	// steep high-cap one. The repair can only give the newcomer the
	// slack the removed thread freed (≈ C/n), while F̂ awards it a whole
	// server's worth — the α probe trips and the middleware must fall
	// back to a cold solve, bit-identical to an uncached engine's.
	c, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Cache: c, WarmK: 4})
	ctx := context.Background()

	const n, m, cap = 20, 2, 100.0
	prev := &core.Instance{M: m, C: cap, Threads: make([]utility.Func, n)}
	for i := range prev.Threads {
		prev.Threads[i] = utility.Linear{Slope: 1 + float64(i)*0.01, C: 2 * cap / n}
	}
	if _, err := eng.Solve(ctx, &Request{Instance: prev}); err != nil {
		t.Fatal(err)
	}

	cur := &core.Instance{M: m, C: cap, Threads: append([]utility.Func{}, prev.Threads...)}
	cur.Threads[n-1] = utility.Linear{Slope: 1000, C: cap}
	got, err := eng.Solve(ctx, &Request{Instance: cur})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.WarmStarts != 0 {
		t.Fatalf("repair that loses α was served: %+v", st)
	}
	want, err := New(Options{}).Solve(ctx, &Request{Instance: cur})
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "fallback cold solve", got.Assignment, want.Assignment)
	rep := check.RatioAgainst(got.Bound, cur, got.Assignment)
	if err := rep.ProbeAlpha(0); err != nil {
		t.Fatalf("fallback result below α: %v", err)
	}
}

func TestCacheOffEngineUntouched(t *testing.T) {
	// A ModeOff cache (or nil) must not install the middleware at all.
	eng := New(Options{Cache: cache.Noop()})
	ctx := context.Background()
	in := corpus(t, 1, 20)[0]
	a, err := eng.Solve(ctx, &Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{}).Solve(ctx, &Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "noop cache", a.Assignment, b.Assignment)
}
