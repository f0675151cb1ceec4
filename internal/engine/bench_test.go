package engine

import (
	"context"
	"testing"

	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

// benchInstances is the 8×400-thread workload shared by the session and
// engine benchmarks.
func benchInstances(b *testing.B) []*core.Instance {
	b.Helper()
	base := rng.New(99)
	ins := make([]*core.Instance, 8)
	for i := range ins {
		in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 400, base.Split(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	return ins
}

// solveStaged is Algorithm 2 with no pipeline around it: the work the
// assign2 backend does per request (validate, then super-optimal bound
// → linearization → assignment with a cancellation check between
// stages) through one caller-held workspace.
func solveStaged(ctx context.Context, in *core.Instance, w *core.Workspace, out *core.Assignment) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	so := w.SuperOptimal(in)
	if err := ctx.Err(); err != nil {
		return err
	}
	gs := w.Linearize(in, so)
	if err := ctx.Err(); err != nil {
		return err
	}
	w.Assign2Linearized(in, gs, out)
	return nil
}

// BenchmarkSolveSession is the steady-state baseline the engine is held
// to: one workspace and one reused output assignment re-solving the
// workload back to back. The number to watch is allocs/op — it must be
// zero.
func BenchmarkSolveSession(b *testing.B) {
	ins := benchInstances(b)
	w := core.GetWorkspace()
	defer core.PutWorkspace(w)
	var out core.Assignment
	ctx := context.Background()
	for _, in := range ins { // size the workspace before counting allocs
		if err := solveStaged(ctx, in, w, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solveStaged(ctx, ins[i%len(ins)], w, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolve is BenchmarkSolveSession through the full engine
// pipeline: the same workload, one reused Response, solves via
// SolveInto. The benchmark-regression gate holds it to < 5% ns/op
// overhead over the raw session solve and 0 allocs/op — the cost of
// riding the registry + middleware chain must stay noise-level.
func BenchmarkEngineSolve(b *testing.B) {
	ins := benchInstances(b)
	eng := New(Options{})
	ctx := context.Background()
	req := &Request{}
	var resp Response
	for _, in := range ins { // size the buffers before counting allocs
		req.Instance = in
		if err := eng.SolveInto(ctx, req, &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Instance = ins[i%len(ins)]
		if err := eng.SolveInto(ctx, req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
