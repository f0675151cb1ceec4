package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"aa/internal/cache"
	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/telemetry"
)

// corpus generates mixed instances across the figure workloads.
func corpus(t *testing.T, count, threads int) []*core.Instance {
	t.Helper()
	dists := []gen.Dist{gen.DefaultUniform, gen.DefaultNormal, gen.PowerLaw{Alpha: 2.5, Xmin: 0.1}}
	base := rng.New(41)
	ins := make([]*core.Instance, 0, count)
	for i := 0; i < count; i++ {
		in, err := gen.Instance(dists[i%len(dists)], 6, 1000, threads, base.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

func sameAssignment(t *testing.T, label string, got, want core.Assignment) {
	t.Helper()
	if len(got.Server) != len(want.Server) {
		t.Fatalf("%s: got %d threads, want %d", label, len(got.Server), len(want.Server))
	}
	for i := range want.Server {
		if got.Server[i] != want.Server[i] || got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("%s: thread %d: got (%d, %v), want (%d, %v)",
				label, i, got.Server[i], got.Alloc[i], want.Server[i], want.Alloc[i])
		}
	}
}

// TestBackendsMatchDirect pins the central refactoring contract: every
// registry backend is bit-identical to the direct core call it
// replaced.
func TestBackendsMatchDirect(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	for _, in := range corpus(t, 6, 40) {
		direct := map[string]core.Assignment{
			"assign2": core.Assign2(in),
			"assign1": core.Assign1(in),
			"polish":  core.PolishAllocations(in, core.Assign2(in)),
			"greedy":  core.AssignGreedyMarginal(in),
			"uu":      core.AssignUU(in),
			"ur":      core.AssignUR(in, rng.New(7)),
			"ru":      core.AssignRU(in, rng.New(7)),
			"rr":      core.AssignRR(in, rng.New(7)),
		}
		lsWant, _, err := core.Improve(ctx, in, core.Assign2(in), 0)
		if err != nil {
			t.Fatal(err)
		}
		direct["ls"] = lsWant
		for name, want := range direct {
			resp, err := eng.Solve(ctx, &Request{Instance: in, Backend: name, Seed: 7, WantUtility: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameAssignment(t, name, resp.Assignment, want)
			if wantU := want.Utility(in); resp.Utility != wantU {
				t.Fatalf("%s: utility %v, want %v", name, resp.Utility, wantU)
			}
			if resp.Backend != name {
				t.Fatalf("%s: response labeled %q", name, resp.Backend)
			}
		}
	}
}

func TestExactBackend(t *testing.T) {
	in := corpus(t, 1, 6)[0]
	resp, err := New(Options{}).Solve(context.Background(), &Request{Instance: in, Backend: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BranchAndBound(context.Background(), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "exact", resp.Assignment, want)
}

// TestAliases: the CLI short names resolve to the same backends.
func TestAliases(t *testing.T) {
	for alias, canonical := range map[string]string{"a2": "assign2", "a1": "assign1", "a2p": "polish", "gm": "greedy"} {
		bk, ok := Lookup(alias)
		if !ok || bk.Name != canonical {
			t.Fatalf("alias %q: got %v, want %q", alias, bk, canonical)
		}
	}
	if _, err := New(Options{}).Solve(context.Background(), &Request{Backend: "nope"}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v", err)
	}
}

// TestAltAssign1: one linearization feeds both algorithms, matching the
// direct pair exactly (the experiment-harness contract).
func TestAltAssign1(t *testing.T) {
	eng := New(Options{})
	for _, in := range corpus(t, 4, 30) {
		resp, err := eng.Solve(context.Background(), &Request{Instance: in, AltAssign1: true, WantUtility: true})
		if err != nil {
			t.Fatal(err)
		}
		sameAssignment(t, "assign2", resp.Assignment, core.Assign2(in))
		sameAssignment(t, "alt assign1", resp.Alt, core.Assign1(in))
		so := core.SuperOptimal(in)
		if resp.Bound != so.Total {
			t.Fatalf("bound %v, want %v", resp.Bound, so.Total)
		}
		if resp.AltUtility != resp.Alt.Utility(in) {
			t.Fatalf("alt utility %v, want %v", resp.AltUtility, resp.Alt.Utility(in))
		}
	}
}

// TestUtilityOptIn: without WantUtility the response carries NaN, and
// the assignment is still complete.
func TestUtilityOptIn(t *testing.T) {
	in := corpus(t, 1, 20)[0]
	resp, err := New(Options{}).Solve(context.Background(), &Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(resp.Utility) || !math.IsNaN(resp.AltUtility) {
		t.Fatalf("utility should be NaN without WantUtility, got %v / %v", resp.Utility, resp.AltUtility)
	}
	if math.IsNaN(resp.Bound) {
		t.Fatal("assign2 should always report the super-optimal bound")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := corpus(t, 1, 20)[0]
	var resp Response
	if err := New(Options{}).SolveInto(ctx, &Request{Instance: in}, &resp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
}

// TestBadRequest: a request without an instance fails with
// ErrBadRequest at SolveInto, on every backend and whichever optional
// layers the engine carries, so the cache and check layers never see a
// nil instance.
func TestBadRequest(t *testing.T) {
	mem, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cache off", Options{}},
		{"cache off, check", Options{Check: true}},
		{"cache on", Options{Cache: mem, WarmK: 4}},
		{"cache on, check", Options{Cache: mem, WarmK: 4, Check: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(tc.opts)
			defer eng.Close()
			ctx := context.Background()
			for _, backend := range Backends() {
				var resp Response
				if err := eng.SolveInto(ctx, &Request{Backend: backend}, &resp); !errors.Is(err, ErrBadRequest) {
					t.Fatalf("%s: nil instance returned %v, want ErrBadRequest", backend, err)
				}
			}
			if _, err := eng.Submit(ctx, &Request{}); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("Submit: nil instance returned %v, want ErrBadRequest", err)
			}
		})
	}
}

// Test fixtures registered once (the registry is process-global):
// test-broken returns an infeasible over-cap allocation to prove the
// check middleware rejects it; test-block parks until released to
// exercise queue backpressure.
var testBlock = make(chan struct{})

func init() {
	register(Backend{
		Name: "test-broken", Doc: "test fixture: returns an infeasible assignment",
		Handle: func(ctx context.Context, req *Request, resp *Response) error {
			n := req.Instance.N()
			resp.Assignment.Reset(n)
			for i := 0; i < n; i++ {
				resp.Assignment.Server[i] = 0
				resp.Assignment.Alloc[i] = req.Instance.C * 2
			}
			return nil
		},
	})
	register(Backend{
		Name: "test-block", Doc: "test fixture: blocks until released",
		Handle: func(ctx context.Context, req *Request, resp *Response) error {
			<-testBlock
			return nil
		},
	})
}

func TestCheckMiddleware(t *testing.T) {
	eng := New(Options{Check: true})
	in := corpus(t, 1, 20)[0]
	if _, err := eng.Solve(context.Background(), &Request{Instance: in}); err != nil {
		t.Fatalf("checked assign2 solve failed: %v", err)
	}
	_, err := eng.Solve(context.Background(), &Request{Instance: in, Backend: "test-broken"})
	if !errors.Is(err, check.ErrInfeasible) {
		t.Fatalf("checked broken solve returned %v, want ErrInfeasible", err)
	}

	// Per-request opt-in does the same on an unchecked engine.
	unchecked := New(Options{})
	if _, err := unchecked.Solve(context.Background(), &Request{Instance: in, Backend: "test-broken"}); err != nil {
		t.Fatalf("unchecked broken solve should pass through, got %v", err)
	}
	_, err = unchecked.Solve(context.Background(), &Request{Instance: in, Backend: "test-broken", Check: true})
	if !errors.Is(err, check.ErrInfeasible) {
		t.Fatalf("per-request check returned %v, want ErrInfeasible", err)
	}
}

// TestMiddlewareOrder: caller middleware runs inside cancellation but
// outside checking, and sees the resolved backend.
func TestMiddlewareOrder(t *testing.T) {
	var saw []string
	mw := func(next Handler) Handler {
		return func(ctx context.Context, req *Request, resp *Response) error {
			saw = append(saw, req.bk.Name)
			return next(ctx, req, resp)
		}
	}
	eng := New(Options{Middleware: []Middleware{mw}})
	in := corpus(t, 1, 10)[0]
	if _, err := eng.Solve(context.Background(), &Request{Instance: in, Backend: "a1"}); err != nil {
		t.Fatal(err)
	}
	if len(saw) != 1 || saw[0] != "assign1" {
		t.Fatalf("middleware saw %v", saw)
	}
}

func TestSolveBatch(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	ins := corpus(t, 12, 25)
	reqs := make([]*Request, len(ins))
	for i, in := range ins {
		reqs[i] = &Request{Instance: in, WantUtility: true}
	}
	resps, err := eng.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		sameAssignment(t, "batch", resp.Assignment, core.Assign2(ins[i]))
	}

	// First failure cancels and reports.
	reqs[5] = &Request{Backend: "nope"}
	if _, err := eng.SolveBatch(context.Background(), reqs); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("batch with bad request returned %v", err)
	}
}

// TestSubmitBackpressure: a full bounded queue rejects with
// ErrQueueFull rather than blocking. One worker (parked on the blocking
// fixture) plus one queue slot leaves at most two of eight submissions
// accepted.
func TestSubmitBackpressure(t *testing.T) {
	// Re-arm the release channel: a previous run (-count>1) closed it,
	// and close of a closed channel panics. Safe unsynchronized — every
	// prior handler returned before its run's drain loop finished.
	testBlock = make(chan struct{})
	eng := New(Options{Workers: 1, QueueDepth: 1})
	in := corpus(t, 1, 4)[0]
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := eng.Submit(context.Background(), &Request{Instance: in, Backend: "test-block"})
			errs <- err
		}()
	}
	rejected := 0
	deadline := time.After(10 * time.Second)
	for rejected < 6 {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrQueueFull):
				rejected++
			case err != nil:
				t.Fatalf("unexpected submit error: %v", err)
			default:
				t.Fatal("a submission completed while the backend was blocked")
			}
		case <-deadline:
			t.Fatalf("only %d rejects before timeout", rejected)
		}
	}
	close(testBlock)
	for seen := rejected; seen < 8; seen++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("drain: %v", err)
		}
	}
	eng.Close()
}

// TestSubmitDeadContextCounted: a request whose deadline has already
// passed never reaches the pool, but the engine's request and failure
// counters still count it.
func TestSubmitDeadContextCounted(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	eng := New(Options{Workers: 1})
	defer eng.Close()
	bk, _ := Lookup("assign2")
	requests, failures := bk.requests.Value(), bk.failures.Value()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := eng.Submit(ctx, &Request{Instance: corpus(t, 1, 4)[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submit returned %v, want context.DeadlineExceeded", err)
	}
	if got := bk.requests.Value() - requests; got != 1 {
		t.Errorf("aa_engine_requests_total moved by %d, want 1", got)
	}
	if got := bk.failures.Value() - failures; got != 1 {
		t.Errorf("aa_engine_failures_total moved by %d, want 1", got)
	}
}

// TestSolveIntoZeroAllocs pins the steady-state allocation contract of
// the full pipeline (resolve → telemetry → cancel → check → workspace
// solve), with telemetry off and with metrics on and tracing off — the
// configuration aaserve and aarelay run every request in.
func TestSolveIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := New(Options{})
	in := corpus(t, 1, 200)[0]
	req := &Request{Instance: in}
	var resp Response
	ctx := context.Background()
	for _, metrics := range []bool{false, true} {
		if metrics {
			telemetry.Enable()
		}
		if err := eng.SolveInto(ctx, req, &resp); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := eng.SolveInto(ctx, req, &resp); err != nil {
				t.Fatal(err)
			}
		})
		telemetry.Disable()
		if allocs != 0 {
			t.Fatalf("SolveInto (metrics %v) allocates %v per op in steady state, want 0", metrics, allocs)
		}
	}
}
