package core_test

// Byte-identity of the Assign1 fast path against the quadratic reference
// across the six figure workload distributions of the paper's §VII
// evaluation — the acceptance property of the perf PR: the rewrite may
// change the complexity class, not a single output bit.

import (
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

func TestAssign1FastMatchesRefFigureCorpus(t *testing.T) {
	base := rng.New(888)
	for wi, w := range check.FigureWorkloads() {
		for _, shape := range []struct{ m, n int }{
			{1, 9}, {4, 3}, {8, 40}, {8, 300}, {3, 120},
		} {
			for trial := 0; trial < 3; trial++ {
				r := base.SplitPath(uint64(wi), uint64(shape.m), uint64(shape.n), uint64(trial))
				in, err := gen.Instance(w.Dist, shape.m, 100, shape.n, r)
				if err != nil {
					t.Fatalf("%s: gen.Instance: %v", w.Name, err)
				}
				so := core.SuperOptimal(in)
				gs := core.Linearize(in, so)
				fast := core.Assign1Linearized(in, gs)
				ref := check.Assign1LinearizedRef(in, gs)
				for i := range ref.Server {
					if fast.Server[i] != ref.Server[i] || fast.Alloc[i] != ref.Alloc[i] {
						t.Fatalf("%s m=%d n=%d trial=%d thread %d: fast (%d,%v) != ref (%d,%v)",
							w.Name, shape.m, shape.n, trial, i,
							fast.Server[i], fast.Alloc[i], ref.Server[i], ref.Alloc[i])
					}
				}
			}
		}
	}
}
