package core_test

// Differential tests for the heap-based Assign1 fast path against the
// retained quadratic reference, and for the Workspace solve methods
// against their allocating package-level counterparts. The fast path's
// contract is byte-identity — same servers, same amounts, bit for bit —
// not merely equal utility.

import (
	"math"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

func assertIdenticalAssignments(t *testing.T, label string, got, want core.Assignment) {
	t.Helper()
	if len(got.Server) != len(want.Server) || len(got.Alloc) != len(want.Alloc) {
		t.Fatalf("%s: assignment sizes differ: (%d,%d) vs (%d,%d)",
			label, len(got.Server), len(got.Alloc), len(want.Server), len(want.Alloc))
	}
	for i := range want.Server {
		if got.Server[i] != want.Server[i] || got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("%s: thread %d: fast (server %d, alloc %v) != reference (server %d, alloc %v)",
				label, i, got.Server[i], got.Alloc[i], want.Server[i], want.Alloc[i])
		}
	}
}

// TestAssign1FastMatchesRefRandom drives both implementations over random
// mixed-family instances spanning thread-starved (n < m), balanced, and
// heavily oversubscribed shapes.
func TestAssign1FastMatchesRefRandom(t *testing.T) {
	base := rng.New(4011)
	for trial := 0; trial < 60; trial++ {
		r := base.Split(uint64(trial))
		m := 1 + r.Intn(8)
		n := 1 + r.Intn(60)
		in := core.RandomInstance(r, n, m, 100)
		so := core.SuperOptimal(in)
		gs := core.Linearize(in, so)
		fast := core.Assign1Linearized(in, gs)
		ref := check.Assign1LinearizedRef(in, gs)
		assertIdenticalAssignments(t, "random", fast, ref)
	}
}

// TestAssign1FastMatchesRefAdversarialTies exercises the tie-breaking
// order directly with hand-built linearizations: duplicate g(ĉ) values,
// duplicate slopes, degenerate ĉ = 0 threads, threads pinned at exactly C,
// and more threads than total capacity serves (forcing the zero-residual
// endgame where every remaining thread gets nothing).
func TestAssign1FastMatchesRefAdversarialTies(t *testing.T) {
	const c = 10.0
	cases := []struct {
		name string
		m    int
		gs   []core.Linearized
	}{
		{"equal-uhat", 2, []core.Linearized{
			{UHat: 5, CHat: 4, C: c}, {UHat: 5, CHat: 4, C: c}, {UHat: 5, CHat: 4, C: c},
			{UHat: 5, CHat: 4, C: c}, {UHat: 5, CHat: 4, C: c}, {UHat: 5, CHat: 4, C: c},
		}},
		{"equal-slope-partials", 1, []core.Linearized{
			{UHat: 8, CHat: 8, C: c}, {UHat: 6, CHat: 6, C: c},
			{UHat: 9, CHat: 9, C: c}, {UHat: 3, CHat: 3, C: c},
		}},
		{"degenerate-chat-zero", 2, []core.Linearized{
			{UHat: 1, CHat: 0, C: c}, {UHat: 7, CHat: 9, C: c},
			{UHat: 2, CHat: 0, C: c}, {UHat: 7, CHat: 9, C: c},
		}},
		{"pinned-at-capacity", 3, []core.Linearized{
			{UHat: 4, CHat: c, C: c}, {UHat: 4, CHat: c, C: c}, {UHat: 4, CHat: c, C: c},
			{UHat: 4, CHat: c, C: c}, {UHat: 1, CHat: 2, C: c},
		}},
		{"zero-residual-endgame", 1, []core.Linearized{
			{UHat: 10, CHat: c, C: c}, {UHat: 3, CHat: 5, C: c},
			{UHat: 2, CHat: 5, C: c}, {UHat: 2, CHat: 5, C: c},
		}},
		{"thread-starved", 5, []core.Linearized{{UHat: 2, CHat: 3, C: c}}},
	}
	for _, tc := range cases {
		threads := make([]utility.Func, len(tc.gs))
		for i := range threads {
			threads[i] = utility.Linear{Slope: 1, C: c}
		}
		in := &core.Instance{M: tc.m, C: c, Threads: threads}
		fast := core.Assign1Linearized(in, tc.gs)
		ref := check.Assign1LinearizedRef(in, tc.gs)
		assertIdenticalAssignments(t, tc.name, fast, ref)
	}
}

// TestWorkspaceSolveMatchesPackageLevel runs the full pipeline through one
// reused Workspace (dirty buffers, varying sizes) and demands bit-identical
// results versus the allocating package-level calls at every stage.
func TestWorkspaceSolveMatchesPackageLevel(t *testing.T) {
	w := core.NewWorkspace()
	var a1, a2 core.Assignment // reused dirty across trials
	base := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		r := base.Split(uint64(trial))
		in := core.RandomInstance(r, 1+r.Intn(50), 1+r.Intn(6), 100)

		so := core.SuperOptimal(in)
		wso := w.SuperOptimal(in)
		if so.Total != wso.Total {
			t.Fatalf("trial %d: workspace SuperOptimal total %v != %v", trial, wso.Total, so.Total)
		}
		for i := range so.Alloc {
			if so.Alloc[i] != wso.Alloc[i] || so.Value[i] != wso.Value[i] {
				t.Fatalf("trial %d thread %d: workspace superopt (%v,%v) != (%v,%v)",
					trial, i, wso.Alloc[i], wso.Value[i], so.Alloc[i], so.Value[i])
			}
		}

		gs := core.Linearize(in, so)
		wgs := w.Linearize(in, wso)
		for i := range gs {
			if gs[i] != wgs[i] {
				t.Fatalf("trial %d thread %d: workspace linearization %+v != %+v", trial, i, wgs[i], gs[i])
			}
		}

		w.Assign1Linearized(in, wgs, &a1)
		assertIdenticalAssignments(t, "workspace-assign1", a1, core.Assign1Linearized(in, gs))
		w.Assign2Linearized(in, wgs, &a2)
		assertIdenticalAssignments(t, "workspace-assign2", a2, core.Assign2Linearized(in, gs))
	}
}

// TestAssignmentReset covers the buffer-reuse rules.
func TestAssignmentReset(t *testing.T) {
	var a core.Assignment
	a.Reset(3)
	if len(a.Server) != 3 || len(a.Alloc) != 3 {
		t.Fatalf("Reset(3) sized (%d,%d)", len(a.Server), len(a.Alloc))
	}
	for i := range a.Server {
		if a.Server[i] != -1 || a.Alloc[i] != 0 {
			t.Fatalf("Reset left thread %d at (%d,%v)", i, a.Server[i], a.Alloc[i])
		}
	}
	a.Server[1], a.Alloc[1] = 7, math.Pi
	prev := &a.Server[0]
	a.Reset(2)
	if len(a.Server) != 2 || a.Server[1] != -1 || a.Alloc[1] != 0 {
		t.Fatal("Reset(2) did not reinitialize the shrunk assignment")
	}
	if &a.Server[0] != prev {
		t.Fatal("Reset(2) reallocated despite sufficient capacity")
	}
	a.Reset(100)
	if len(a.Server) != 100 || a.Server[99] != -1 {
		t.Fatal("Reset(100) did not grow correctly")
	}
}
