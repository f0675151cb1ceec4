package core_test

// The benchmark matrix behind scripts/bench_regress.sh: solve, superopt,
// assign1 and assign2 across the six figure workloads at n ∈ {100, 1k,
// 10k} (m = 8, C = 1000, the paper's §VII configuration), plus the
// retained reference implementations on the uniform workload — the
// "before" side of the committed BENCH_*.json speedup evidence. All
// benches report allocs/op; the workspace-driven ones are expected to
// stay at zero in steady state.

import (
	"fmt"
	"math"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

var benchSizes = []int{100, 1000, 10000}

// calibrateSink defeats dead-code elimination in BenchmarkCalibrate.
var calibrateSink float64

// BenchmarkCalibrate is a fixed floating-point workload with no inputs
// and no allocations. cmd/benchgate divides its ns/op in the current run
// by the baseline's to estimate how fast this machine is relative to the
// one that produced the baseline, and rescales every ns/op gate by that
// factor — so the committed baseline stays meaningful across CI runners
// of different speeds.
func BenchmarkCalibrate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := 0.0
		for j := 1; j <= 4096; j++ {
			s += math.Sqrt(float64(j))
		}
		calibrateSink = s
	}
}

func benchInstance(b *testing.B, dist gen.Dist, n int) *core.Instance {
	b.Helper()
	in, err := gen.Instance(dist, 8, 1000, n, rng.New(uint64(4242+n)))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// forEachWorkload runs fn for every (figure workload, n) pair.
func forEachWorkload(b *testing.B, fn func(b *testing.B, in *core.Instance)) {
	for _, w := range check.FigureWorkloads() {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", w.Name, n), func(b *testing.B) {
				fn(b, benchInstance(b, w.Dist, n))
			})
		}
	}
}

func BenchmarkSuperOptimal(b *testing.B) {
	forEachWorkload(b, func(b *testing.B, in *core.Instance) {
		w := core.NewWorkspace()
		w.SuperOptimal(in) // size the workspace before counting allocs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.SuperOptimal(in)
		}
	})
}

func BenchmarkAssign1(b *testing.B) {
	forEachWorkload(b, func(b *testing.B, in *core.Instance) {
		w := core.NewWorkspace()
		so := w.SuperOptimal(in)
		gs := w.Linearize(in, so)
		var out core.Assignment
		w.Assign1Linearized(in, gs, &out) // size the workspace before counting allocs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Assign1Linearized(in, gs, &out)
		}
	})
}

func BenchmarkAssign2(b *testing.B) {
	forEachWorkload(b, func(b *testing.B, in *core.Instance) {
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
	})
}

// BenchmarkSolve is the full steady-state pipeline — super-optimal bound,
// linearization, Algorithm 2 — through one reused workspace, the hot loop
// a solverpool worker runs per request.
func BenchmarkSolve(b *testing.B) {
	forEachWorkload(b, func(b *testing.B, in *core.Instance) {
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
	})
}

// --- Reference ("before") implementations, uniform workload only --------

func BenchmarkAssign1Ref(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("fig1a-uniform/n=%d", n), func(b *testing.B) {
			in := benchInstance(b, gen.DefaultUniform, n)
			so := core.SuperOptimal(in)
			gs := core.Linearize(in, so)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check.Assign1LinearizedRef(in, gs)
			}
		})
	}
}

// derivOnly hides a utility's DerivInverter fast path, forcing the
// generic derivative bisection — how every λ-probe evaluated sampled
// curves before the closed-form PCHIP inverse.
type derivOnly struct{ f utility.Func }

func (d derivOnly) Value(x float64) float64 { return d.f.Value(x) }
func (d derivOnly) Deriv(x float64) float64 { return d.f.Deriv(x) }
func (d derivOnly) Cap() float64            { return d.f.Cap() }

// BenchmarkSuperOptimalRef is the pre-fast-path super-optimal bound: the
// unpruned ConcaveRef water-filling with bisection-based inverse
// derivatives (gen threads have cap = C, so the capping wrapper the real
// pipeline adds is a no-op and is omitted).
func BenchmarkSuperOptimalRef(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("fig1a-uniform/n=%d", n), func(b *testing.B) {
			in := benchInstance(b, gen.DefaultUniform, n)
			fs := make([]utility.Func, in.N())
			for i, f := range in.Threads {
				fs[i] = derivOnly{f: f}
			}
			budget := float64(in.M) * in.C
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check.ConcaveRef(fs, budget)
			}
		})
	}
}
