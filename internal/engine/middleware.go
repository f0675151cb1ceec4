package engine

import (
	"context"
	"math"
	"time"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/telemetry"
)

// Engine-wide latency histogram; the per-backend request/failure
// counters live on the Backend (created at register time). All of it is
// recorded only when telemetry is enabled, keeping the disabled path
// allocation- and syscall-free.
var engineSolveLat = telemetry.Default.Histogram("aa_engine_solve_latency_seconds", telemetry.LatencyBuckets)

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
		if !telemetry.Enabled() {
			return next(ctx, req, resp)
		}
		bk := req.bk
		bk.requests.Inc()
		start := time.Now()
		var span telemetry.Span
		if telemetry.TraceEnabled() {
			attrs := make([]telemetry.Attr, 0, 5)
			attrs = append(attrs, telemetry.String("backend", bk.Name),
				telemetry.Int("n", req.Instance.N()), telemetry.Int("m", req.Instance.M))
			if req.Seed != 0 {
				attrs = append(attrs, telemetry.Uint64("seed", req.Seed))
			}
			attrs = append(attrs, telemetry.Bool("check", req.Check))
			ctx, span = telemetry.StartSpanCtx(ctx, "engine.solve", attrs...)
		}
		err := next(ctx, req, resp)
		engineSolveLat.Observe(time.Since(start).Seconds())
		span.AddAttrs(telemetry.Bool("ok", err == nil))
		span.End()
		if err != nil {
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
			if !telemetry.TraceEnabled() {
				return verify(req, resp)
			}
			_, span := telemetry.StartSpanCtx(ctx, "engine.check")
			verr := verify(req, resp)
			span.AddAttrs(telemetry.Bool("ok", verr == nil))
			span.End()
			return verr
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
		if err := rep.CheckAlpha(0); err != nil {
			return err
		}
	} else if err := rep.CheckBound(0); err != nil {
		return err
	}
	if !req.AltAssign1 {
		return nil
	}
	// The alternate Algorithm 1 result rides the same guarantee.
	if err := check.Feasible(in, resp.Alt, check.DefaultEps); err != nil {
		return err
	}
	return ratioFor(resp.Bound, req, resp.Alt).CheckAlpha(0)
}

// ratioFor reuses the backend's own F̂ when it computed one, and pays
// for a fresh super-optimal bound only for backends that don't.
func ratioFor(bound float64, req *Request, a core.Assignment) check.RatioReport {
	if !math.IsNaN(bound) {
		return check.RatioAgainst(bound, req.Instance, a)
	}
	return check.Ratio(req.Instance, a)
}
