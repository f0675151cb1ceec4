package engine

import (
	"context"
	"errors"
	"fmt"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/telemetry"
)

// ErrBadRequest is wrapped by backend errors caused by a malformed
// request (nil instance, wrong payload type), as opposed to a solve
// failure.
var ErrBadRequest = errors.New("engine: bad request")

// The core backends: the paper's two algorithms on the workspace fast
// path, the refinement passes built on Algorithm 2, the exact
// branch-and-bound reference, and the four placement heuristics the
// figures compare against.
func init() {
	Register(Backend{
		Name: "assign2", Aliases: []string{"a2"}, Guaranteed: true,
		Doc:    "Algorithm 2: sorted placement onto the super-optimal linearization (the paper's recommended solver)",
		Handle: func(ctx ctxT, req *Request, resp *Response) error { return solveLinearized(ctx, req, resp, false) },
	})
	Register(Backend{
		Name: "assign1", Aliases: []string{"a1"}, Guaranteed: true,
		Doc:    "Algorithm 1: greedy placement onto the super-optimal linearization",
		Handle: func(ctx ctxT, req *Request, resp *Response) error { return solveLinearized(ctx, req, resp, true) },
	})
	Register(Backend{
		Name: "polish", Aliases: []string{"a2p"}, Guaranteed: true,
		Doc:    "Algorithm 2 followed by exact per-server concave re-allocation",
		Handle: handlePolish,
	})
	Register(Backend{
		Name: "ls", Guaranteed: true,
		Doc:    "Algorithm 2 followed by single-thread local-search moves (MaxMoves bounds the search)",
		Handle: handleLocalSearch,
	})
	Register(Backend{
		Name: "greedy", Aliases: []string{"gm"},
		Doc:    "greedy marginal-gain placement with per-server water-filling",
		Handle: handleGreedy,
	})
	Register(Backend{
		Name:   "exact",
		Doc:    "branch-and-bound exact optimum (small instances; MaxNodes bounds the search)",
		Handle: handleExact,
	})
	Register(Backend{
		Name:   "uu",
		Doc:    "heuristic: utility-ordered threads onto utilization-ordered servers",
		Handle: heuristicHandler(func(in *core.Instance, _ *rng.Rand) core.Assignment { return core.AssignUU(in) }),
	})
	Register(Backend{
		Name: "ur", Stochastic: true,
		Doc:    "heuristic: utility-ordered threads onto random servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignUR),
	})
	Register(Backend{
		Name: "ru", Stochastic: true,
		Doc:    "heuristic: random threads onto utilization-ordered servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignRU),
	})
	Register(Backend{
		Name: "rr", Stochastic: true,
		Doc:    "heuristic: random threads onto random servers (Seed drives the stream)",
		Handle: heuristicHandler(core.AssignRR),
	})
}

// ctxT keeps the registration table readable.
type ctxT = context.Context

// requireInstance validates the request's core instance.
func requireInstance(req *Request, resp *Response) (*core.Instance, error) {
	in := req.Instance
	if in == nil {
		return nil, fmt.Errorf("%w: backend %q needs a core instance", ErrBadRequest, resp.Backend)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// solveLinearized is the workspace fast path shared by assign1/assign2
// (and the refinement backends): super-optimal bound → linearization →
// assignment, with a cancellation check between stages, every scratch
// buffer borrowed from the core workspace pool. Zero heap allocations
// in steady state; results bit-identical to core.Assign1/core.Assign2.
func solveLinearized(ctx ctxT, req *Request, resp *Response, algo1 bool) error {
	in, err := requireInstance(req, resp)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
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
		if req.AltAssign1 {
			w.Assign1Linearized(in, gs, &resp.Alt)
		}
	}
	resp.Bound = so.Total
	resp.Lambda = so.Lambda
	finishUtility(req, resp)
	return nil
}

// finishUtility evaluates F (and Alt's F) on demand. It stays off the
// default path so a plain solve costs exactly what a Session solve
// does.
func finishUtility(req *Request, resp *Response) {
	if !req.WantUtility {
		return
	}
	resp.Utility = resp.Assignment.Utility(req.Instance)
	if req.AltAssign1 {
		resp.AltUtility = resp.Alt.Utility(req.Instance)
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
	a, moves := core.Improve(req.Instance, resp.Assignment, req.MaxMoves)
	resp.Assignment = a
	resp.Moves = moves
	finishUtility(req, resp)
	return nil
}

func handleGreedy(ctx ctxT, req *Request, resp *Response) error {
	in, err := requireInstance(req, resp)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	resp.Assignment = core.AssignGreedyMarginal(in)
	finishUtility(req, resp)
	return nil
}

func handleExact(ctx ctxT, req *Request, resp *Response) error {
	in, err := requireInstance(req, resp)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
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
		in, err := requireInstance(req, resp)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		resp.Assignment = f(in, rng.New(req.Seed))
		finishUtility(req, resp)
		return nil
	}
}
