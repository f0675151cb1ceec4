package aa

import (
	"context"
	"errors"
	"testing"
	"time"
)

// generateBatch draws n reproducible instances with the §VII generator.
func generateBatch(t testing.TB, n, threads int) []*Instance {
	t.Helper()
	r := NewRand(7)
	ins := make([]*Instance, n)
	for i := range ins {
		in, err := GenerateInstance(UniformDist{Lo: 0, Hi: 1}, 4, 500, threads, r)
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = in
	}
	return ins
}

func TestSolveBatchMatchesSolve(t *testing.T) {
	ins := generateBatch(t, 16, 24)
	out, err := SolveBatch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ins) {
		t.Fatalf("got %d assignments, want %d", len(out), len(ins))
	}
	for i, in := range ins {
		if got, want := out[i].Utility(in), Solve(in).Utility(in); got != want {
			t.Errorf("instance %d: batch utility %v != Solve %v", i, got, want)
		}
		if err := out[i].Validate(in, 1e-9); err != nil {
			t.Errorf("instance %d: infeasible assignment: %v", i, err)
		}
	}
}

// SolveBatch must return context.Canceled promptly even when workers
// are mid-solve on large instances.
func TestSolveBatchCancelledPromptly(t *testing.T) {
	ins := generateBatch(t, 32, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SolveBatch(ctx, ins)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("SolveBatch took %v to notice cancellation", elapsed)
	}
}

// TestSolverPoolFacade drives every SolverPool entry point: Solve,
// Submit and SolveBatch agree with Solve; an invalid instance and a
// dead context fail; Close is idempotent and later solves fail.
func TestSolverPoolFacade(t *testing.T) {
	p := NewSolverPool(SolverPoolOptions{Workers: 2})
	ctx := context.Background()
	ins := generateBatch(t, 4, 10)
	batch, err := p.SolveBatch(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		want := Solve(in).Utility(in)
		a, err := p.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Utility(in); got != want {
			t.Errorf("instance %d: pool Solve utility %v, want %v", i, got, want)
		}
		if got := batch[i].Utility(in); got != want {
			t.Errorf("instance %d: pool SolveBatch utility %v, want %v", i, got, want)
		}
		a, err = p.Submit(ctx, in)
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Utility(in); got != want {
			t.Errorf("instance %d: pool Submit utility %v, want %v", i, got, want)
		}
	}
	if _, err := p.Solve(ctx, &Instance{M: 0, C: 1}); err == nil {
		t.Error("invalid instance accepted")
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Solve(dead, ins[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx: %v, want context.Canceled", err)
	}
	p.Close()
	p.Close()
	if _, err := p.Solve(ctx, ins[0]); err == nil {
		t.Error("Solve on a closed pool succeeded")
	}
}

// TestSolverPoolSolveMatchesSolve: the pool runs the same Algorithm 2
// pipeline as Solve, bit for bit.
func TestSolverPoolSolveMatchesSolve(t *testing.T) {
	p := NewSolverPool(SolverPoolOptions{Workers: 4})
	defer p.Close()
	for i, in := range generateBatch(t, 5, 40) {
		got, err := p.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want := Solve(in)
		for k := range want.Server {
			if got.Server[k] != want.Server[k] || got.Alloc[k] != want.Alloc[k] {
				t.Fatalf("instance %d thread %d: pool (%d, %v) != Solve (%d, %v)",
					i, k, got.Server[k], got.Alloc[k], want.Server[k], want.Alloc[k])
			}
		}
	}
}

func TestSolverPoolSolveRespectsDeadline(t *testing.T) {
	p := NewSolverPool(SolverPoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	in := generateBatch(t, 1, 8000)[0]
	if _, err := p.Solve(ctx, in); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSolveBatchRejectsInvalidInstance(t *testing.T) {
	ins := generateBatch(t, 3, 10)
	ins[1] = &Instance{M: 0, C: 1}
	if _, err := SolveBatch(context.Background(), ins); err == nil {
		t.Error("invalid instance did not fail the batch")
	}
}
