package solverpool_test

// The executor knows nothing about solving, but every concurrent
// Algorithm 2 solve in the tree runs on it through internal/engine
// (Submit uses Pool.Submit, SolveBatch uses Pool.ForEach). These tests
// pin that solves riding the pool keep the contracts the pool's old
// solve API had: bit-identity with core.Assign2, validation, prompt
// cancellation, post-solve checking and a zero-alloc steady state.

import (
	"context"
	"errors"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

func checkedInstance() *core.Instance {
	return &core.Instance{
		M: 2, C: 100,
		Threads: []utility.Func{
			utility.Log{Scale: 5, Shift: 10, C: 100},
			utility.Linear{Slope: 1, C: 30},
			utility.SatExp{Scale: 3, K: 20, C: 100},
		},
	}
}

func sameAssignment(t *testing.T, what string, got, want core.Assignment) {
	t.Helper()
	if len(got.Server) != len(want.Server) {
		t.Fatalf("%s: %d threads, want %d", what, len(got.Server), len(want.Server))
	}
	for i := range want.Server {
		if got.Server[i] != want.Server[i] || got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("%s thread %d: (%d,%v) != core.Assign2 (%d,%v)",
				what, i, got.Server[i], got.Alloc[i], want.Server[i], want.Alloc[i])
		}
	}
}

// TestSessionMatchesAssign2 demands bit-identity between solves run on
// the pool's workers (pooled workspaces, one Submit each and one
// ForEach-backed batch) and the allocating core.Assign2 across a spread
// of instance sizes.
func TestSessionMatchesAssign2(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 3})
	defer eng.Close()
	ctx := context.Background()
	base := rng.New(31)
	var reqs []*engine.Request
	for trial := 0; trial < 25; trial++ {
		r := base.Split(uint64(trial))
		in, err := gen.Instance(gen.DefaultUniform, 1+r.Intn(8), 100, 1+r.Intn(80), r)
		if err != nil {
			t.Fatal(err)
		}
		req := &engine.Request{Instance: in}
		reqs = append(reqs, req)
		resp, err := eng.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		sameAssignment(t, "submit", resp.Assignment, core.Assign2(in))
	}
	resps, err := eng.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		sameAssignment(t, "batch", resp.Assignment, core.Assign2(reqs[i].Instance))
	}
}

// TestSessionSolveCancellation: a dead context aborts a pooled solve
// before it produces anything, on both the non-blocking and the
// fan-out path.
func TestSessionSolveCancellation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	in, err := gen.Instance(gen.DefaultUniform, 4, 100, 20, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := &engine.Request{Instance: in}
	if resp, err := eng.Submit(ctx, req); !errors.Is(err, context.Canceled) || resp != nil {
		t.Fatalf("cancelled submit returned (%v, %v), want (nil, context.Canceled)", resp, err)
	}
	if resps, err := eng.SolveBatch(ctx, []*engine.Request{req, req}); !errors.Is(err, context.Canceled) || resps != nil {
		t.Fatalf("cancelled batch returned (%v, %v), want (nil, context.Canceled)", resps, err)
	}
}

// TestSessionSolveZeroAllocs pins the steady-state allocation contract
// of the solve every pool task runs: once the pooled workspace and the
// caller's response have grown to the workload's size, a solve
// allocates nothing.
func TestSessionSolveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 400, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	req := &engine.Request{Instance: in}
	var resp engine.Response
	ctx := context.Background()
	if err := eng.SolveInto(ctx, req, &resp); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.SolveInto(ctx, req, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state solve allocates %v times per run, want 0", allocs)
	}
}

// TestSolveInstanceValidates: a pooled solve rejects an invalid
// instance, and a dead context wins over the work.
func TestSolveInstanceValidates(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), &engine.Request{Instance: &core.Instance{M: 0, C: 1}}); err == nil {
		t.Error("invalid instance accepted")
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Submit(cctx, &engine.Request{Instance: checkedInstance()}); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx: %v, want context.Canceled", err)
	}
}

// TestCheckedPoolVerifiesSolves: a checked engine verifies the solves
// its pool runs, moving aa_check_total without any violation.
func TestCheckedPoolVerifiesSolves(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, Check: true})
	defer eng.Close()
	c0, v0 := check.Totals()
	resp, err := eng.Submit(context.Background(), &engine.Request{Instance: checkedInstance()})
	if err != nil {
		t.Fatalf("checked solve failed: %v", err)
	}
	if got := resp.Assignment.Utility(checkedInstance()); got <= 0 {
		t.Errorf("utility %v, want > 0", got)
	}
	c1, v1 := check.Totals()
	if c1 == c0 {
		t.Error("Options.Check did not run any checks")
	}
	if v1 != v0 {
		t.Errorf("clean solve grew aa_check_violations_total by %d", v1-v0)
	}
}

// TestProcessWideCheckCoversUncheckedPool: check.Enable reaches the
// ForEach-backed batch path of an engine built without Check.
func TestProcessWideCheckCoversUncheckedPool(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	check.Enable()
	defer check.Disable()
	c0, _ := check.Totals()
	reqs := []*engine.Request{{Instance: checkedInstance()}, {Instance: checkedInstance()}}
	if _, err := eng.SolveBatch(context.Background(), reqs); err != nil {
		t.Fatalf("batch failed under check.Enable: %v", err)
	}
	if c1, _ := check.Totals(); c1 == c0 {
		t.Error("check.Enable did not reach an engine built without Options.Check")
	}
}
