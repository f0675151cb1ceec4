// Package solverpool is the repository's bounded task executor: a fixed
// set of worker goroutines draining a bounded job queue. It knows
// nothing about solving; internal/engine runs every solve through it,
// and the harnesses fan their trials out with ForEach.
//
// Design points, in the order they matter:
//
//   - Bounded queue with backpressure. The job queue has a fixed depth;
//     Submit rejects with ErrQueueFull when it is full rather than
//     growing without bound, and Enqueue blocks until a slot frees or
//     the caller's context is done. A caller that must not block uses
//     Submit; a caller producing many tasks uses Enqueue (or ForEach)
//     and lets the queue pace it.
//
//   - Per-task cancellation. Every job carries the submitter's
//     context.Context, and the task is always invoked with it — even
//     when it died while queued — so a task checks ctx first and bails
//     out cheaply, and any per-task completion signal always fires.
//
//   - One fan-out. ForEach is the only "run n tasks, first error cancels
//     the rest" loop in the tree: tasks are index-addressed and write
//     into disjoint slots, so output never depends on goroutine
//     scheduling or worker count, and every task has finished when
//     ForEach returns.
//
//   - Observable. The process-wide telemetry registry carries the pool
//     metrics (aa_pool_*): submitted/rejected/completed/cancelled/failed
//     counters, a live queue-depth gauge, and a run-latency histogram,
//     aggregated across every pool in the process.
package solverpool

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"aa/internal/telemetry"
)

// Process-wide pool metrics (aa_pool_*). Counters and histograms
// aggregate across every pool in the process and are recorded only when
// telemetry is enabled; the queue-depth gauge tracks jobs accepted but
// not yet picked up by a worker and is maintained unconditionally (two
// atomic adds per job) so that enabling telemetry mid-run still reads a
// correct depth.
//
// A finished task is classified by the error it RETURNS, not by the
// state of its context: nil is completed (even if its context died
// while it ran), context.Canceled or context.DeadlineExceeded (possibly
// wrapped) is cancelled, and every other error is failed.
var (
	poolSubmitted  = telemetry.Default.Counter("aa_pool_submitted_total")
	poolRejected   = telemetry.Default.Counter("aa_pool_rejected_total")
	poolCompleted  = telemetry.Default.Counter("aa_pool_completed_total")
	poolCancelled  = telemetry.Default.Counter("aa_pool_cancelled_total")
	poolFailed     = telemetry.Default.Counter("aa_pool_failed_total")
	poolQueueDepth = telemetry.Default.Gauge("aa_pool_queue_depth")
	// stageRun times each task; it has no span (the engine's own stages
	// trace the solve a task runs).
	stageRun = telemetry.NewStage("",
		telemetry.Default.Histogram("aa_pool_solve_latency_seconds", telemetry.LatencyBuckets))
)

// Sentinel errors returned by submission.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the backpressure signal. The caller decides whether to
	// retry, shed load, or switch to the blocking Enqueue.
	ErrQueueFull = errors.New("solverpool: queue full")
	// ErrClosed is returned when submitting to a closed pool.
	ErrClosed = errors.New("solverpool: pool closed")
)

// Task is one unit of work. The context is the submitter's; a task that
// honors it returns its error (context.Canceled / DeadlineExceeded) so
// the pool counts the job as cancelled rather than failed.
type Task func(ctx context.Context) error

// Options configure a Pool. The zero value is usable: GOMAXPROCS
// workers and a queue of twice that depth.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (not counting
	// the ones in flight); <= 0 means 2×Workers.
	QueueDepth int
}

type job struct {
	ctx  context.Context
	task Task
}

// Pool is a fixed-size worker pool over a bounded job queue. Create with
// New, release with Close. All methods are safe for concurrent use.
type Pool struct {
	workers int
	jobs    chan job

	mu     sync.RWMutex // guards closed vs. sends on jobs
	closed bool
	wg     sync.WaitGroup
}

// New starts a pool with opts. The caller owns the pool and must Close
// it to release the workers.
func New(opts Options) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := opts.QueueDepth
	if q <= 0 {
		q = 2 * w
	}
	p := &Pool{workers: w, jobs: make(chan job, q)}
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		run(j)
	}
}

// run executes one job and, with telemetry on, records its latency and
// outcome. The task is always invoked, even when its context died while
// queued (see Task).
func run(j job) {
	poolQueueDepth.Add(-1)
	sp := stageRun.StartIn(telemetry.SpanContext{})
	err := j.task(j.ctx)
	sp.End()
	if !telemetry.Enabled() {
		return
	}
	switch {
	case err == nil:
		poolCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		poolCancelled.Inc()
	default:
		poolFailed.Inc()
	}
}

// Submit enqueues task without blocking. It returns ErrQueueFull when
// the queue is at capacity, ErrClosed after Close, or ctx.Err() if the
// request is already dead.
func (p *Pool) Submit(ctx context.Context, task Task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.jobs <- job{ctx: ctx, task: task}:
		poolQueueDepth.Add(1)
		if telemetry.Enabled() {
			poolSubmitted.Inc()
		}
		return nil
	default:
		if telemetry.Enabled() {
			poolRejected.Inc()
			telemetry.Event("pool.reject")
		}
		return ErrQueueFull
	}
}

// Enqueue enqueues task, blocking until a queue slot frees or ctx is
// done. This is the paced path for producers of many tasks; the queue
// bound is what provides the backpressure.
func (p *Pool) Enqueue(ctx context.Context, task Task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- job{ctx: ctx, task: task}:
		poolQueueDepth.Add(1)
		if telemetry.Enabled() {
			poolSubmitted.Inc()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ForEach runs fn(ctx, i) for every i in [0, n) on the pool's workers,
// enqueueing the tasks in index order through Enqueue (so the queue
// paces a large n), and waits for them. The first error — from a task,
// from ctx ending, or from a closed pool — cancels the context of the
// tasks still to run and is returned. Every enqueued task has finished
// when ForEach returns, so fn may write into per-index slots that the
// caller reads afterwards without further synchronisation. n <= 0
// returns nil.
//
// ForEach must not be called from a task running on the same pool: the
// enqueueing caller would hold a worker while waiting for queue slots.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := p.Enqueue(fctx, func(tctx context.Context) error {
			defer wg.Done()
			err := tctx.Err()
			if err == nil {
				err = fn(tctx, i)
			}
			if err != nil {
				fail(err)
			}
			return err
		})
		if err != nil {
			wg.Done()
			fail(err)
			break
		}
	}
	wg.Wait()
	return first
}

// Close stops accepting jobs, waits for queued and in-flight jobs to
// drain, and releases the workers. Closing twice is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
