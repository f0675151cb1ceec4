package engine

import (
	"context"
	"math"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/telemetry"
)

// The engine's timed layers. engine.solve feeds the engine-wide latency
// histogram; the per-backend request/failure counters live on the
// Backend (created at register time). All of it is recorded only when
// telemetry is enabled, keeping the disabled path allocation- and
// syscall-free.
var (
	stageSolve = telemetry.NewStage("engine.solve",
		telemetry.Default.Histogram("aa_engine_solve_latency_seconds", telemetry.LatencyBuckets))
	stageCache    = telemetry.NewStage("engine.cache", nil)
	stageCheck    = telemetry.NewStage("engine.check", nil)
	stageDispatch = telemetry.NewStage("engine.dispatch", nil)
)

// withTelemetry is the outermost layer: it counts every request —
// including ones that die on cancellation before dispatch — into the
// resolved backend's aa_engine_requests_total / failures counters and
// observes end-to-end latency. When tracing is on it opens the
// engine.solve root span for the request — a child of whatever span the
// incoming ctx carries (the HTTP span in aaserve, the replay event
// span, the CLI process root) — and re-wraps ctx so every inner layer
// (dispatch, the solver stages, checking) parents under it.
func withTelemetry(next Handler) Handler {
	return func(ctx context.Context, req *Request, resp *Response) error {
		bk := req.bk
		if telemetry.Enabled() {
			bk.requests.Inc()
		}
		ctx, sp := stageSolve.Start(ctx)
		sp.Str("backend", bk.Name)
		sp.Int("n", req.Instance.N())
		sp.Int("m", req.Instance.M)
		if req.Seed != 0 {
			sp.Uint64("seed", req.Seed)
		}
		sp.Bool("check", req.Check)
		err := next(ctx, req, resp)
		sp.Bool("ok", err == nil)
		sp.End()
		if err != nil && telemetry.Enabled() {
			bk.failures.Inc()
		}
		return err
	}
}

// withCancel fails a request whose context is already dead before any
// work starts. Backends additionally check ctx between expensive
// stages, so this is the fast-fail front door, not the only check.
func withCancel(next Handler) Handler {
	return func(ctx context.Context, req *Request, resp *Response) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return next(ctx, req, resp)
	}
}

// withCheck wraps dispatch with post-solve verification: feasibility
// plus the ratio report against the super-optimal bound — the α
// guarantee for backends that carry it, the F ≤ F̂ upper bound for
// those that don't. It runs when the engine option, the request, or
// the process-wide check.Enable switch asks for it, and fails the
// request with an error wrapping check.ErrInfeasible / check.ErrRatio
// instead of returning a bogus result.
func withCheck(force bool) Middleware {
	return func(next Handler) Handler {
		return func(ctx context.Context, req *Request, resp *Response) error {
			err := next(ctx, req, resp)
			if err != nil || !(force || req.Check || check.Enabled()) {
				return err
			}
			_, sp := stageCheck.Start(ctx)
			err = verify(req, resp)
			sp.Bool("ok", err == nil)
			sp.End()
			return err
		}
	}
}

// verify checks a finished response against the request's instance.
func verify(req *Request, resp *Response) error {
	in := req.Instance
	if err := check.Feasible(in, resp.Assignment, check.DefaultEps); err != nil {
		return err
	}
	rep := ratioFor(resp.Bound, req, resp.Assignment)
	if req.bk.Guaranteed {
		return rep.CheckAlpha(0)
	}
	return rep.CheckBound(0)
}

// ratioFor reuses the backend's own F̂ when it computed one, and pays
// for a fresh super-optimal bound only for backends that don't.
func ratioFor(bound float64, req *Request, a core.Assignment) check.RatioReport {
	if !math.IsNaN(bound) {
		return check.RatioAgainst(bound, req.Instance, a)
	}
	return check.Ratio(req.Instance, a)
}
