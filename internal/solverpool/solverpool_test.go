package solverpool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aa/internal/telemetry"
)

// counts reads the process-wide aa_pool_*_total counters by name, so
// the tests pin the exported metric names as well as the outcome
// classification.
type counts struct{ submitted, rejected, completed, cancelled, failed uint64 }

func readCounts() counts {
	c := func(name string) uint64 { return telemetry.Default.Counter(name).Value() }
	return counts{
		submitted: c("aa_pool_submitted_total"),
		rejected:  c("aa_pool_rejected_total"),
		completed: c("aa_pool_completed_total"),
		cancelled: c("aa_pool_cancelled_total"),
		failed:    c("aa_pool_failed_total"),
	}
}

func (a counts) minus(b counts) counts {
	return counts{a.submitted - b.submitted, a.rejected - b.rejected,
		a.completed - b.completed, a.cancelled - b.cancelled, a.failed - b.failed}
}

// enableTelemetry turns the registry on for one test: the pool counts
// outcomes only while telemetry is enabled.
func enableTelemetry(t *testing.T) {
	t.Helper()
	if !telemetry.Enabled() {
		telemetry.Enable()
		t.Cleanup(telemetry.Disable)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	enableTelemetry(t)
	p := New(Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	before := readCounts()
	release := make(chan struct{})
	block := func(context.Context) error { <-release; return nil }
	// Fill the single worker and the single queue slot. The worker may
	// not have picked the first job up yet; keep feeding until Submit
	// reports the queue full.
	var queued int
	for i := 0; i < 100; i++ {
		err := p.Submit(context.Background(), block)
		if err == nil {
			queued++
			continue
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		break
	}
	if queued > 2 {
		t.Fatalf("one worker plus a queue of depth 1 accepted %d jobs", queued)
	}
	close(release)
	p.Close()
	d := readCounts().minus(before)
	if d.rejected == 0 {
		t.Error("aa_pool_rejected_total did not move under backpressure")
	}
	if d.submitted != uint64(queued) || d.completed != uint64(queued) {
		t.Errorf("submitted/completed deltas %d/%d, want %d each", d.submitted, d.completed, queued)
	}
}

func TestEnqueueBlocksUntilCancelled(t *testing.T) {
	p := New(Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ { // occupy worker + queue slot
		if err := p.Enqueue(context.Background(), func(context.Context) error {
			<-release
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.Enqueue(ctx, func(context.Context) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestClosedPoolRejects(t *testing.T) {
	p := New(Options{Workers: 1})
	p.Close()
	p.Close() // double close is a no-op
	nop := func(context.Context) error { return nil }
	if err := p.Submit(context.Background(), nop); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := p.Enqueue(context.Background(), nop); !errors.Is(err, ErrClosed) {
		t.Errorf("Enqueue after Close: %v, want ErrClosed", err)
	}
	if err := p.ForEach(context.Background(), 3, func(context.Context, int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("ForEach after Close: %v, want ErrClosed", err)
	}
}

// TestOutcomeCounts: every accepted task lands in exactly one of the
// completed/cancelled/failed counters, decided by the error it returns;
// a dead-on-arrival Submit never reaches the queue; Close drains.
func TestOutcomeCounts(t *testing.T) {
	enableTelemetry(t)
	p := New(Options{Workers: 4})
	before := readCounts()
	if err := p.ForEach(context.Background(), 20, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := p.Enqueue(context.Background(), func(context.Context) error { return boom }); err != nil {
		t.Fatal(err)
	}
	wrapped := fmt.Errorf("stage 2: %w", context.DeadlineExceeded)
	if err := p.Enqueue(context.Background(), func(context.Context) error { return wrapped }); err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := p.Submit(cctx, func(context.Context) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with dead ctx: %v", err)
	}
	p.Close() // drains the queue
	d := readCounts().minus(before)
	want := counts{submitted: 22, completed: 20, cancelled: 1, failed: 1}
	if d != want {
		t.Errorf("counter deltas %+v, want %+v", d, want)
	}
}

func TestCancelledWhileQueuedCountsCancelled(t *testing.T) {
	enableTelemetry(t)
	p := New(Options{Workers: 1, QueueDepth: 4})
	before := readCounts()
	release := make(chan struct{})
	if err := p.Enqueue(context.Background(), func(context.Context) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	solved := false
	if err := p.Enqueue(ctx, func(tctx context.Context) error {
		if err := tctx.Err(); err != nil {
			return err
		}
		solved = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cancel() // dies while queued behind the blocker
	close(release)
	p.Close()
	if solved {
		t.Error("queued task did real work after its context was cancelled")
	}
	if d := readCounts().minus(before); d.cancelled != 1 || d.completed != 1 {
		t.Errorf("deltas %+v, want 1 cancelled and 1 completed", d)
	}
}

// TestConcurrentSubmittersRaceClean drives ForEach, Enqueue and Submit
// on one pool from many goroutines at once (run under -race).
func TestConcurrentSubmittersRaceClean(t *testing.T) {
	p := New(Options{Workers: 4, QueueDepth: 8})
	var (
		wg   sync.WaitGroup
		side atomic.Int64
	)
	sums := make([]int, 8)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := make([]int, 10)
			if err := p.ForEach(context.Background(), len(slots), func(_ context.Context, i int) error {
				slots[i] = g*100 + i
				return nil
			}); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for _, v := range slots {
				sums[g] += v
			}
			_ = p.Enqueue(context.Background(), func(context.Context) error { side.Add(1); return nil })
			_ = p.Submit(context.Background(), func(context.Context) error { side.Add(1); return nil })
		}()
	}
	wg.Wait()
	p.Close()
	for g, s := range sums {
		if want := g*1000 + 45; s != want {
			t.Errorf("goroutine %d: slot sum %d, want %d", g, s, want)
		}
	}
	if side.Load() < 8 {
		t.Errorf("%d side tasks ran, want at least the 8 enqueued", side.Load())
	}
}

// TestForEachIndexedSlots: task i writes slot i, so the result is in
// input order and identical for every worker count.
func TestForEachIndexedSlots(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := New(Options{Workers: workers, QueueDepth: 2})
		out := make([]int, 200)
		err := p.ForEach(context.Background(), len(out), func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForEachFirstErrorCancelsRest: the first failing task cancels the
// rest and its error — not the cancellation it caused — is returned.
// With one worker and a one-slot queue, the tasks behind the failure
// see a dead context and never call fn.
func TestForEachFirstErrorCancelsRest(t *testing.T) {
	p := New(Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	boom := errors.New("boom")
	var calls atomic.Int64
	err := p.ForEach(context.Background(), 50, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times after the first error, want only the failing task", n)
	}
}

// TestForEachWaitsForEveryTask: when ForEach returns — here with an
// error while other tasks are still mid-run — every task that started
// has finished, so its slot write is visible to the caller (the race
// detector checks the same thing).
func TestForEachWaitsForEveryTask(t *testing.T) {
	p := New(Options{Workers: 4, QueueDepth: 4})
	defer p.Close()
	var started, finished atomic.Int64
	done := make([]bool, 64)
	err := p.ForEach(context.Background(), len(done), func(ctx context.Context, i int) error {
		started.Add(1)
		defer finished.Add(1)
		if i == 5 {
			return errors.New("boom")
		}
		time.Sleep(2 * time.Millisecond) // outlives the cancellation
		done[i] = true
		return nil
	})
	if err == nil {
		t.Fatal("ForEach swallowed the task error")
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("ForEach returned with %d of %d started tasks unfinished", s-f, s)
	}
	var n int64
	for _, ok := range done {
		if ok {
			n++
		}
	}
	if n != started.Load()-1 {
		t.Errorf("%d slots written, want %d (every started task but the failing one)", n, started.Load()-1)
	}
}

func TestForEachCancelledPromptly(t *testing.T) {
	p := New(Options{Workers: 2, QueueDepth: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.ForEach(ctx, 64, func(ctx context.Context, i int) error {
		select { // a long task that honors its context
		case <-time.After(5 * time.Second):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("ForEach took %v to notice cancellation", elapsed)
	}
}

func TestForEachEmpty(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	if err := p.ForEach(context.Background(), 0, func(context.Context, int) error {
		t.Error("fn called for an empty range")
		return nil
	}); err != nil {
		t.Errorf("empty ForEach: %v", err)
	}
}

func ExamplePool() {
	p := New(Options{Workers: 2})
	defer p.Close()
	squares := make([]int, 5)
	err := p.ForEach(context.Background(), len(squares), func(_ context.Context, i int) error {
		squares[i] = i * i
		return nil
	})
	fmt.Println(squares, err)
	// Output: [0 1 4 9 16] <nil>
}
