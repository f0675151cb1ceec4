package engine

// Regression tests for two engine lifecycle bugs:
//
//   - Response.prepare never reset Assignment/Alt, so a Response reused
//     via SolveInto leaked the previous solve's Alt after a request
//     without AltAssign1, and kept a stale assignment tail when a
//     backend wrote fewer threads than the previous solve.
//
//   - Engine.Close raced with the sync.Once lazy pool start: Submit or
//     SolveBatch after Close silently started a fresh pool that nothing
//     would ever drain (goroutine + queue leak) instead of failing.
//
// Both tests fail against the pre-fix engine, as does the exact-backend
// deadline test at the end of the file.

import (
	"context"
	"errors"
	"testing"
	"time"

	"aa/internal/gen"
	"aa/internal/rng"
)

func TestResponseReuseClearsAlt(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	in := corpus(t, 1, 30)[0]

	var resp Response
	if err := eng.SolveInto(ctx, &Request{Instance: in, AltAssign1: true}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Alt.Server) != in.N() {
		t.Fatalf("alt solve produced %d alt threads, want %d", len(resp.Alt.Server), in.N())
	}
	// Reuse the same Response without AltAssign1: Alt must come back
	// empty, not as the previous solve's leftover.
	if err := eng.SolveInto(ctx, &Request{Instance: in}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Alt.Server) != 0 || len(resp.Alt.Alloc) != 0 {
		t.Fatalf("reused response leaked a stale Alt: %d servers / %d allocs",
			len(resp.Alt.Server), len(resp.Alt.Alloc))
	}
}

func TestResponseReuseTruncatesStaleTail(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	big := corpus(t, 1, 40)[0]
	small := corpus(t, 1, 10)[0]

	var resp Response
	if err := eng.SolveInto(ctx, &Request{Instance: big}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := eng.SolveInto(ctx, &Request{Instance: small}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Assignment.Server) != small.N() || len(resp.Assignment.Alloc) != small.N() {
		t.Fatalf("reused response kept a stale tail: %d threads, want %d",
			len(resp.Assignment.Server), small.N())
	}
}

func TestClosedEngineRejectsConcurrentEntryPoints(t *testing.T) {
	ctx := context.Background()
	in := corpus(t, 1, 10)[0]

	t.Run("never-started pool", func(t *testing.T) {
		eng := New(Options{})
		eng.Close() // pool never started; Close must still latch
		if _, err := eng.Submit(ctx, &Request{Instance: in}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Close: %v, want ErrClosed", err)
		}
		if _, err := eng.SolveBatch(ctx, []*Request{{Instance: in}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("SolveBatch after Close: %v, want ErrClosed", err)
		}
		if eng.pool != nil {
			t.Fatal("a concurrent entry point restarted a pool on a closed engine")
		}
		// Synchronous solves keep working after Close.
		if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
			t.Fatalf("Solve after Close: %v", err)
		}
	})

	t.Run("started pool", func(t *testing.T) {
		eng := New(Options{Workers: 2})
		if _, err := eng.Submit(ctx, &Request{Instance: in}); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close() // idempotent
		if _, err := eng.Submit(ctx, &Request{Instance: in}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Close: %v, want ErrClosed", err)
		}
		if _, err := eng.SolveBatch(ctx, []*Request{{Instance: in}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("SolveBatch after Close: %v, want ErrClosed", err)
		}
	})

	t.Run("concurrent close and submit", func(t *testing.T) {
		// Race-detector fodder for the Close/lazy-start interleaving the
		// old sync.Once version got wrong.
		eng := New(Options{Workers: 2})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				_, err := eng.Submit(ctx, &Request{Instance: in})
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
		time.Sleep(time.Millisecond)
		eng.Close()
		<-done
	})
}

// testBatchBlock releases the batch-cancellation fixture; unlike
// testBlock it is owned by this file so TestSubmitBackpressure's
// close(testBlock) cannot interfere.
var testBatchBlock = make(chan struct{})

func init() {
	Register(Backend{
		Name: "test-batch-block", Doc: "test fixture: blocks until released or cancelled",
		Handle: func(ctx context.Context, req *Request, resp *Response) error {
			select {
			case <-testBatchBlock:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
}

func TestSolveBatchFirstErrorCancelsRest(t *testing.T) {
	// One worker, bad request first: its failure must cancel the batch
	// context, so the remaining blocking Enqueue calls fail fast instead of deadlocking on the full queue, and the
	// batch returns the first error.
	eng := New(Options{Workers: 1, QueueDepth: 1})
	defer eng.Close()
	in := corpus(t, 1, 10)[0]
	reqs := []*Request{
		{Instance: in, Backend: "no-such-backend"},
	}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, &Request{Instance: in, Backend: "test-batch-block"})
	}
	done := make(chan struct{})
	var batchErr error
	go func() {
		defer close(done)
		_, batchErr = eng.SolveBatch(context.Background(), reqs)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SolveBatch deadlocked after first error")
	}
	if !errors.Is(batchErr, ErrUnknownBackend) {
		t.Fatalf("batch error %v, want ErrUnknownBackend", batchErr)
	}
}

func TestSolveBatchContextCancelMidBatch(t *testing.T) {
	eng := New(Options{Workers: 2, QueueDepth: 4})
	defer eng.Close()
	in := corpus(t, 1, 10)[0]
	reqs := make([]*Request, 6)
	for i := range reqs {
		reqs[i] = &Request{Instance: in, Backend: "test-batch-block"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.SolveBatch(ctx, reqs)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let workers park on the fixture
	cancel()
	select {
	case err := <-done:
		// SolveBatch returns only once every task it enqueued has
		// finished, so returning at all proves no task leaked.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled SolveBatch never returned")
	}
}

func TestSolveBatchMixedResults(t *testing.T) {
	// Results come back in input order with exactly one slot per request
	// even when some fail — the accounting that would break if an index
	// ever reported twice.
	eng := New(Options{Workers: 4})
	defer eng.Close()
	ins := corpus(t, 3, 15)
	reqs := []*Request{
		{Instance: ins[0]},
		{Instance: ins[1], Backend: "assign1"},
		{Instance: ins[2], Backend: "greedy"},
	}
	out, err := eng.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(out), len(reqs))
	}
	for i, resp := range out {
		if resp == nil {
			t.Fatalf("response %d missing", i)
		}
		if want := map[int]string{0: "assign2", 1: "assign1", 2: "greedy"}[i]; resp.Backend != want {
			t.Fatalf("response %d from backend %q, want %q", i, resp.Backend, want)
		}
	}
}

// TestExactBackendHonoursDeadline: branch and bound checks ctx while it
// searches, so a deadline ends a huge exact solve promptly, and Close —
// which waits for the in-flight task — is not held hostage by it.
// Before the search was context-aware the solve ran to its node budget
// (minutes at this size) after the caller had gone.
func TestExactBackendHonoursDeadline(t *testing.T) {
	in, err := gen.Instance(gen.PowerLaw{Alpha: 2, Xmin: 1}, 4, 1000, 26, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.Submit(ctx, &Request{Instance: in, Backend: "exact", MaxNodes: 1 << 40})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exact solve under a 20ms deadline returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline noticed after %v", elapsed)
	}
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on the cancelled exact solve after 1s")
	}
}
