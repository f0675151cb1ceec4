package core_test

// The million-thread benchmark tier: Assign2 alone and the full solve
// pipeline at n = 10⁶, m = 64. Building and solving a million-thread
// instance takes seconds, so the tier is opt-in behind AA_BENCH_1M
// (scripts/bench_regress.sh runs it when the variable is set) and the
// default CI lane stays fast. When the snapshot carries the tier,
// benchgate requires both benchmarks to allocate nothing per op.

import (
	"os"
	"testing"

	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

const millionN = 1_000_000

func guard1M(b *testing.B) {
	b.Helper()
	if os.Getenv("AA_BENCH_1M") == "" {
		b.Skip("set AA_BENCH_1M=1 to run the n=10^6 benchmark tier")
	}
}

func millionInstance(b *testing.B) *core.Instance {
	b.Helper()
	in, err := gen.Instance(gen.DefaultUniform, 64, 1000, millionN, rng.New(uint64(4242+millionN)))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// assign2Steady times w.Assign2Linearized in steady state.
func assign2Steady(b *testing.B, in *core.Instance) {
	b.Helper()
	w := core.NewWorkspace()
	so := w.SuperOptimal(in)
	gs := w.Linearize(in, so)
	var out core.Assignment
	w.Assign2Linearized(in, gs, &out) // size the workspace before counting allocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Assign2Linearized(in, gs, &out)
	}
}

func BenchmarkAssign2Serial1M(b *testing.B) {
	guard1M(b)
	assign2Steady(b, millionInstance(b))
}

// BenchmarkSolve1M is the full pipeline — super-optimal bound,
// linearization, Assign2 — at 10⁶ threads: the "single-node
// million-thread solve" headline number.
func BenchmarkSolve1M(b *testing.B) {
	guard1M(b)
	in := millionInstance(b)
	w := core.NewWorkspace()
	var out core.Assignment
	{ // size the workspace before counting allocs
		so := w.SuperOptimal(in)
		gs := w.Linearize(in, so)
		w.Assign2Linearized(in, gs, &out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		so := w.SuperOptimal(in)
		gs := w.Linearize(in, so)
		w.Assign2Linearized(in, gs, &out)
	}
}
