// Package engine is the repository's unified solver pipeline: one
// request/response path that every solve in the tree — the public aa
// facade, the variant packages, the CLI binaries and the aaserve
// service — rides instead of wiring pooling, checking and telemetry
// per call site. The experiment harness's trials are the exception:
// they compare the paper's algorithms on one workspace themselves.
//
// The pieces, bottom up:
//
//   - A fixed, named-backend registry (see Backend): "assign2" and
//     "assign1" are the paper's algorithms on the zero-alloc
//     core.Workspace fast path, joined by "polish", "ls", "greedy",
//     "exact" and the four placement heuristics. All of them are
//     registered by this package's init; nothing outside it adds a
//     backend. Every request carries a *core.Instance: a variant
//     package (cloud, hosting, online, ...) that reduces to AA builds
//     the instance itself and names a core backend.
//
//   - A middleware chain (Handler/Middleware) composed once at Engine
//     construction, outermost first: telemetry (aa_engine_* counters,
//     latency histogram, and the per-request engine.solve root span
//     with engine.dispatch / core.* / engine.check children — skipped
//     entirely when telemetry is off), cancellation (fail fast on a dead
//     context; backends also check ctx between stages), any
//     caller-supplied middleware, then post-solve checking
//     (check.Feasible plus the ratio report against F̂ — α for
//     guaranteed backends, the F ≤ F̂ bound for heuristics), and
//     finally dispatch to the backend.
//
//   - An Engine, which owns the composed chain, the default backend
//     name, and a lazily started solverpool.Pool for the concurrent
//     entry points: Submit (non-blocking, ErrQueueFull backpressure —
//     the service front door), SolveBatch (a solverpool.ForEach: paced
//     enqueue, results in input order, first error cancels the rest)
//     and SolveBatchStream (ordered streaming with a bounded window).
//
// Allocation discipline: Solve returns a fresh Response the caller
// owns; SolveInto reuses a caller-held Response and performs zero heap
// allocations in steady state on the workspace-backed backends, so hot
// loops (online re-solves, the runtime table, benchmarks) pay nothing
// for riding the pipeline. BenchmarkEngineSolve pins both properties
// against BenchmarkSolveSession.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/solverpool"
)

// ErrQueueFull is the backpressure signal from Submit, re-exported from
// solverpool so engine callers can errors.Is against it without
// importing the pool.
var ErrQueueFull = solverpool.ErrQueueFull

// ErrClosed is returned by the concurrent entry points (Submit,
// SolveBatch) after Close — re-exported from solverpool like
// ErrQueueFull. Synchronous entry points keep working after Close.
var ErrClosed = solverpool.ErrClosed

// Request describes one solve. The zero value plus an Instance is a
// valid request for the engine's default backend.
type Request struct {
	// Instance is the AA instance to solve. SolveInto rejects a request
	// without one with ErrBadRequest before any layer runs.
	Instance *core.Instance
	// Backend names the registry entry to dispatch to; "" uses the
	// engine's default (normally "assign2"). Aliases resolve.
	Backend string
	// Seed derives the random stream for stochastic backends (the
	// ur/ru/rr heuristics). Deterministic backends ignore it.
	Seed uint64
	// MaxNodes bounds the branch-and-bound search of the "exact"
	// backend; <= 0 means the core default.
	MaxNodes int
	// WantUtility asks the backend to evaluate the achieved total
	// utility F into Response.Utility. Off by default so the hot path
	// matches the Session contract of "assignment only"; callers that
	// report F (CLIs, the service, experiments) switch it on.
	WantUtility bool
	// Check forces post-solve verification for this request even when
	// neither the engine option nor the process-wide check.Enable is
	// set.
	Check bool
	// NoCache bypasses the engine's solve cache for this request (both
	// lookup and store), forcing a fresh solve. Meaningless on engines
	// built without Options.Cache.
	NoCache bool

	// bk is the backend resolved by the engine before the chain runs,
	// so middleware reads it without repeating the registry lookup.
	bk *Backend
	// keepCHat asks the backend for Response.CHat; the solve cache sets
	// it on the misses whose response it stores.
	keepCHat bool
}

// Response is the result of one solve. Responses are plain data the
// caller owns; pass the same Response back to SolveInto to reuse its
// buffers.
type Response struct {
	// Assignment is the solver's thread placement and allocation. Its
	// backing arrays are reused across SolveInto calls.
	Assignment core.Assignment
	// Utility is the achieved total utility F when the request set
	// WantUtility, else NaN.
	Utility float64
	// Bound is the super-optimal bound F̂ when the backend computed one
	// (the linearized backends get it for free), else NaN.
	Bound float64
	// Lambda is the water-filling price of the solve's λ-search when the
	// backend ran one (the linearized backends), else 0. The solve cache
	// persists it so warm-start re-solves can seed their λ-search.
	Lambda float64
	// CHat is the super-optimal allocation ĉ the backend linearized,
	// filled only for the solve cache (a linearized backend's cache miss,
	// or a warm start), else empty. The cache persists it so a later warm
	// start's first λ probe can take the shared threads' amounts from
	// it. Its backing array is reused across SolveInto calls.
	CHat []float64
	// Backend is the canonical name of the backend that produced this
	// response.
	Backend string
}

// prepare resets the response for a new solve. The assignment buffers
// are truncated to length zero (keeping their capacity, so the
// zero-alloc SolveInto contract holds): a reused Response must not keep
// a stale assignment tail after a backend that writes fewer threads,
// nor the previous solve's Utility, Bound or Lambda after a backend
// that does not compute them.
func (r *Response) prepare(backend string) {
	r.Assignment.Server = r.Assignment.Server[:0]
	r.Assignment.Alloc = r.Assignment.Alloc[:0]
	r.Utility = math.NaN()
	r.Bound = math.NaN()
	r.Lambda = 0
	r.CHat = r.CHat[:0]
	r.Backend = backend
}

// Handler is the engine's internal hop signature: solve req into resp.
// Backends and middleware share it.
type Handler func(ctx context.Context, req *Request, resp *Response) error

// Middleware wraps a Handler with a cross-cutting concern.
type Middleware func(Handler) Handler

// Chain composes middleware around a handler, first element outermost.
func Chain(h Handler, mw ...Middleware) Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// Options configure an Engine. The zero value is usable: default
// backend assign2, GOMAXPROCS workers with a queue of twice that depth
// (started lazily on first concurrent use), checking only by request or
// process-wide switch.
type Options struct {
	// Backend is the default backend for requests that leave
	// Request.Backend empty; "" means "assign2".
	Backend string
	// Workers and QueueDepth size the pool behind Submit/SolveBatch,
	// with the solverpool defaults for values <= 0.
	Workers    int
	QueueDepth int
	// Check turns on post-solve verification for every request through
	// this engine (the per-request Check field and the process-wide
	// check.Enable switch do the same with narrower/wider scope).
	Check bool
	// Middleware is appended inside the built-in telemetry and
	// cancellation layers but outside checking and dispatch.
	Middleware []Middleware
	// Cache installs the solve-result cache middleware (between the
	// caller middleware and checking, so miss-path solves are fully
	// verified before being stored). nil or a ModeOff cache leaves the
	// pipeline untouched — no per-request canonicalization cost.
	Cache cache.Cache
	// WarmK bounds the warm-start repair: a cache miss whose canonical
	// form differs from a cached instance's by at most WarmK threads on
	// each side (added and removed) is repaired from that entry instead
	// of solved cold. 0 disables warm starts (exact hits still serve).
	WarmK int
}

// Engine runs requests through the composed middleware chain and, for
// the concurrent entry points, a bounded worker pool. Safe for
// concurrent use.
type Engine struct {
	def     string
	handler Handler

	// poolMu guards the lazily started pool AND the closed flag: the
	// old sync.Once lazy start raced with Close — a post-Close Submit
	// silently restarted a fresh pool that was never drained (goroutine
	// and queue leak). Now every concurrent entry point resolves the
	// pool under the same lock Close takes, and sees ErrClosed instead.
	poolMu   sync.Mutex
	pool     *solverpool.Pool
	poolOpts solverpool.Options
	closed   bool
}

// New builds an engine: the middleware chain is composed here, once, so
// per-solve cost is a few direct calls.
func New(opts Options) *Engine {
	def := opts.Backend
	if def == "" {
		def = "assign2"
	}
	mw := make([]Middleware, 0, 4+len(opts.Middleware))
	mw = append(mw, withTelemetry, withCancel)
	mw = append(mw, opts.Middleware...)
	if opts.Cache != nil && opts.Cache.Mode() != cache.ModeOff {
		mw = append(mw, withSolveCache(opts.Cache, opts.WarmK))
	}
	mw = append(mw, withCheck(opts.Check))
	return &Engine{
		def:      def,
		handler:  Chain(dispatch, mw...),
		poolOpts: solverpool.Options{Workers: opts.Workers, QueueDepth: opts.QueueDepth},
	}
}

// dispatch is the innermost handler: hand the request to its resolved
// backend, under an engine.dispatch child span when tracing is on so
// the trace separates queueing/checking overhead from backend time.
func dispatch(ctx context.Context, req *Request, resp *Response) error {
	ctx, sp := stageDispatch.Start(ctx)
	sp.Str("backend", req.bk.Name)
	err := req.bk.Handle(ctx, req, resp)
	sp.Bool("ok", err == nil)
	sp.End()
	return err
}

// SolveInto runs one request through the pipeline on the caller's
// goroutine, writing into a caller-owned Response. This is the
// zero-alloc steady-state path: with resp (and the pooled workspace
// buffers) grown to the workload's size, a workspace-backed solve
// allocates nothing. A request without an Instance fails here, once,
// with ErrBadRequest, so every layer below may rely on one.
func (e *Engine) SolveInto(ctx context.Context, req *Request, resp *Response) error {
	bk, err := resolve(req.Backend, e.def)
	if err != nil {
		return err
	}
	if req.Instance == nil {
		return fmt.Errorf("%w: request has no instance", ErrBadRequest)
	}
	req.bk, req.keepCHat = bk, false
	resp.prepare(bk.Name)
	return e.handler(ctx, req, resp)
}

// Solve runs one request and returns a fresh Response the caller owns.
func (e *Engine) Solve(ctx context.Context, req *Request) (*Response, error) {
	resp := new(Response)
	if err := e.SolveInto(ctx, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// lazyPool starts the worker pool on first concurrent use, so engines
// used purely synchronously (the package default, the aa facade) never
// spawn goroutines. After Close it returns ErrClosed rather than
// restarting a pool nothing would ever drain.
func (e *Engine) lazyPool() (*solverpool.Pool, error) {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.pool == nil {
		e.pool = solverpool.New(e.poolOpts)
	}
	return e.pool, nil
}

// QueueDepth returns the number of requests waiting in the engine's
// pool queue; 0 before the pool starts.
func (e *Engine) QueueDepth() int {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.pool == nil {
		return 0
	}
	return e.pool.QueueDepth()
}

// Submit hands the request to the engine's pool without blocking: it
// returns ErrQueueFull when the bounded queue is at capacity (the
// backpressure signal a service turns into 429/503), ctx.Err() for a
// dead request, and otherwise waits for the result. The wait honors
// ctx even while a worker is still chewing. A request the pool turns
// away because its context is already dead still runs through the
// chain on the caller's goroutine, so the telemetry layer counts it
// and the cancellation layer fails it before any work.
func (e *Engine) Submit(ctx context.Context, req *Request) (*Response, error) {
	type result struct {
		resp *Response
		err  error
	}
	p, err := e.lazyPool()
	if err != nil {
		return nil, err
	}
	ch := make(chan result, 1)
	err = p.Submit(ctx, func(tctx context.Context) error {
		r, err := e.Solve(tctx, req)
		ch <- result{resp: r, err: err}
		return err
	})
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return e.Solve(ctx, req)
		}
		return nil, err
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SolveBatch fans the requests out across the engine's pool and returns
// one response per request, in input order. Enqueueing blocks when the
// queue is full (the paced batch path); the first failure cancels every
// remaining solve and is returned once the solves already running have
// finished.
func (e *Engine) SolveBatch(ctx context.Context, reqs []*Request) ([]*Response, error) {
	p, err := e.lazyPool()
	if err != nil {
		return nil, err
	}
	out := make([]*Response, len(reqs))
	err = p.ForEach(ctx, len(reqs), func(ctx context.Context, i int) error {
		var err error
		out[i], err = e.Solve(ctx, reqs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolveBatchStream pipelines an unbounded request stream through the
// engine's pool with bounded memory: decode → solve → emit overlap,
// with at most 2×workers+2 requests (plus the one being decoded) alive
// at once, enough to keep every pool worker busy while the next
// responses drain. Each response is emitted together with its request,
// strictly in input order. The first failure in input order, whether
// it came from next, a solve, or emit, cancels every outstanding
// solve. It returns the number of responses emitted alongside that
// first error, so a caller that has already written output knows the
// stream is torn. Cancelling ctx tears
// the stream down too and is always reported as ctx.Err(), never as a
// clean completion, even when every in-flight solve had finished.
//
// next yields the requests one at a time and io.EOF to end the stream;
// a mid-stream next error takes the slot of the request it failed to
// produce, so every response before it is still emitted first. next and
// emit are never called concurrently with themselves, but next runs
// concurrently with emit — decoding the tail of a stream while the head
// solves is the point.
func (e *Engine) SolveBatchStream(ctx context.Context, next func() (*Request, error), emit func(*Request, *Response) error) (int, error) {
	p, err := e.lazyPool()
	if err != nil {
		return 0, err
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each slot is one input position; the bounded channel is both the
	// in-order hand-off and the in-flight window: the producer blocks
	// once 2×workers+2 slots are undrained.
	type slot struct {
		req  *Request
		resp *Response
		err  error
		done chan struct{}
	}
	window := make(chan *slot, 2*p.Workers()+2)
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(window)
		for bctx.Err() == nil {
			req, err := next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					s := &slot{err: err, done: make(chan struct{})}
					close(s.done)
					select {
					case window <- s:
					case <-bctx.Done():
					}
				}
				return
			}
			s := &slot{req: req, done: make(chan struct{})}
			select {
			case window <- s:
			case <-bctx.Done():
				return
			}
			if err := p.Enqueue(bctx, func(tctx context.Context) error {
				s.resp, s.err = e.Solve(tctx, req)
				close(s.done)
				return s.err
			}); err != nil {
				s.err = err
				close(s.done)
			}
		}
	}()

	// fail tears the stream down and joins the producer before
	// returning, so next is guaranteed not to be called (and not to be
	// mid-call) once SolveBatchStream has returned — callers hand next a
	// request body they must not touch after their handler exits.
	fail := func(err error) error {
		cancel()
		<-prodDone
		return err
	}
	emitted := 0
	for s := range window {
		// The select below races s.done against ctx.Done() and may pick
		// either when both are ready, so cancellation must also be
		// checked deterministically: a cancelled stream never reports
		// clean completion, even if every in-flight slot had solved.
		if err := ctx.Err(); err != nil {
			return emitted, fail(err)
		}
		select {
		case <-s.done:
		case <-ctx.Done():
			return emitted, fail(ctx.Err())
		}
		if s.err != nil {
			return emitted, fail(s.err)
		}
		if err := emit(s.req, s.resp); err != nil {
			return emitted, fail(err)
		}
		emitted++
	}
	if err := ctx.Err(); err != nil {
		return emitted, fail(err)
	}
	return emitted, nil
}

// Close drains and stops the engine's pool, if one was ever started,
// and marks the engine closed: the concurrent entry points (Submit,
// SolveBatch) return ErrClosed afterwards. Synchronous entry points
// keep working after Close. Closing twice is a no-op.
func (e *Engine) Close() {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.pool != nil {
		e.pool.Close()
	}
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine (default options,
// never closed). Callers without an engine of their own solve through
// it: the aa facade, aasolve, the experiment harness, online re-solves
// and the variant packages that reduce to an AA instance.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Options{}) })
	return defaultEngine
}
