package engine

import (
	"context"
	"errors"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/telemetry"
)

// ErrBadRequest is wrapped by errors caused by a malformed request (a
// missing instance), as opposed to a solve failure.
var ErrBadRequest = errors.New("engine: bad request")

// The core backends: the paper's two algorithms on the workspace fast
// path, the refinement passes built on Algorithm 2, the exact
// branch-and-bound reference, and the four placement heuristics the
// figures compare against.
func init() {
	register(Backend{
		Name: "assign2", Aliases: []string{"a2"}, Guaranteed: true,
		Doc:    "Algorithm 2: sorted placement onto the super-optimal linearization (the paper's recommended solver)",
		Handle: func(ctx ctxT, req *Request, resp *Response) error { return solveLinearized(ctx, req, resp, false) },
	})
	register(Backend{
		Name: "assign1", Aliases: []string{"a1"}, Guaranteed: true,
		Doc:    "Algorithm 1: greedy placement onto the super-optimal linearization",
		Handle: func(ctx ctxT, req *Request, resp *Response) error { return solveLinearized(ctx, req, resp, true) },
	})
	register(Backend{
		Name: "polish", Aliases: []string{"a2p"}, Guaranteed: true,
		Doc:    "Algorithm 2 followed by exact per-server concave re-allocation",
		Handle: handlePolish,
	})
	register(Backend{
		Name: "ls", Guaranteed: true,
		Doc:    "Algorithm 2 followed by single-thread local-search moves",
		Handle: handleLocalSearch,
	})
	register(Backend{
		Name: "greedy", Aliases: []string{"gm"},
		Doc:    "greedy marginal-gain placement with per-server water-filling",
		Handle: handleGreedy,
	})
	register(Backend{
		Name:   "exact",
		Doc:    "branch-and-bound exact optimum (small instances; MaxNodes bounds the search)",
		Handle: handleExact,
	})
	register(Backend{
		Name:   "uu",
		Doc:    "heuristic: utility-ordered threads onto utilization-ordered servers",
		Handle: heuristicHandler(func(in *core.Instance, _ *rng.Rand) core.Assignment { return core.AssignUU(in) }),
	})
	register(Backend{
		Name: "ur", Stochastic: true,
		Doc:    "heuristic: utility-ordered threads onto random servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignUR),
	})
	register(Backend{
		Name: "ru", Stochastic: true,
		Doc:    "heuristic: random threads onto utilization-ordered servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignRU),
	})
	register(Backend{
		Name: "rr", Stochastic: true,
		Doc:    "heuristic: random threads onto random servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignRR),
	})
}

// ctxT keeps the registration table readable.
type ctxT = context.Context

// validInstance is every backend's preamble: the request's instance
// must validate and ctx must still be live. SolveInto has already
// rejected a nil instance.
func validInstance(ctx ctxT, req *Request) (*core.Instance, error) {
	in := req.Instance
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, ctx.Err()
}

// solveLinearized is the workspace fast path shared by assign1/assign2
// (and the refinement backends): super-optimal bound → linearization →
// assignment, with a cancellation check between stages, every scratch
// buffer borrowed from the core workspace pool. Zero heap allocations
// in steady state; results bit-identical to core.Assign1/core.Assign2.
func solveLinearized(ctx ctxT, req *Request, resp *Response, algo1 bool) error {
	in, err := validInstance(ctx, req)
	if err != nil {
		return err
	}
	w := core.GetWorkspace()
	defer core.PutWorkspace(w)
	if telemetry.TraceEnabled() {
		// Parent the core.superopt/core.assign* stage spans to this
		// request (the engine.dispatch span carried by ctx).
		w.SetSpanContext(telemetry.SpanFromContext(ctx))
	}
	so := w.SuperOptimal(in)
	if err := ctx.Err(); err != nil {
		return err
	}
	gs := w.Linearize(in, so)
	if err := ctx.Err(); err != nil {
		return err
	}
	if algo1 {
		w.Assign1Linearized(in, gs, &resp.Assignment)
	} else {
		w.Assign2Linearized(in, gs, &resp.Assignment)
	}
	resp.Bound = so.Total
	resp.Lambda = so.Lambda
	if req.keepCHat {
		resp.CHat = append(resp.CHat[:0], so.Alloc...)
	}
	finishUtility(req, resp)
	return nil
}

// finishUtility evaluates F on demand. It stays off the default path
// so a plain solve costs exactly what a Session solve does.
func finishUtility(req *Request, resp *Response) {
	if req.WantUtility {
		resp.Utility = resp.Assignment.Utility(req.Instance)
	}
}

func handlePolish(ctx ctxT, req *Request, resp *Response) error {
	if err := solveLinearized(ctx, req, resp, false); err != nil {
		return err
	}
	resp.Assignment = core.PolishAllocations(req.Instance, resp.Assignment)
	finishUtility(req, resp)
	return nil
}

func handleLocalSearch(ctx ctxT, req *Request, resp *Response) error {
	if err := solveLinearized(ctx, req, resp, false); err != nil {
		return err
	}
	a, _, err := core.Improve(ctx, req.Instance, resp.Assignment, 0)
	if err != nil {
		return err
	}
	resp.Assignment = a
	finishUtility(req, resp)
	return nil
}

func handleGreedy(ctx ctxT, req *Request, resp *Response) error {
	in, err := validInstance(ctx, req)
	if err != nil {
		return err
	}
	resp.Assignment = core.AssignGreedyMarginal(in)
	finishUtility(req, resp)
	return nil
}

func handleExact(ctx ctxT, req *Request, resp *Response) error {
	in, err := validInstance(ctx, req)
	if err != nil {
		return err
	}
	a, err := core.BranchAndBound(ctx, in, req.MaxNodes)
	if err != nil {
		return err
	}
	resp.Assignment = a
	finishUtility(req, resp)
	return nil
}

// heuristicHandler adapts the placement heuristics; stochastic ones
// derive their stream from Request.Seed, so the same request always
// yields the same assignment regardless of scheduling.
func heuristicHandler(f func(*core.Instance, *rng.Rand) core.Assignment) Handler {
	return func(ctx ctxT, req *Request, resp *Response) error {
		in, err := validInstance(ctx, req)
		if err != nil {
			return err
		}
		resp.Assignment = f(in, rng.New(req.Seed))
		finishUtility(req, resp)
		return nil
	}
}
