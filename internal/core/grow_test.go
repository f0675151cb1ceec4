package core

import (
	"testing"

	"aa/internal/rng"
)

// TestWorkspaceGrowingInstanceAllocs pins the scratch-growth contract of
// the workspace: re-solving an instance that gains one thread per solve
// (a replayed fleet's arrivals) regrows the bound, linearization, order
// and assignment buffers with append's amortized headroom instead of
// reallocating them on every solve, so the super-optimal bound →
// Linearize → Assign2 pipeline averages zero allocations per solve.
func TestWorkspaceGrowingInstanceAllocs(t *testing.T) {
	const start, runs = 1000, 200
	in := randomInstance(rng.New(18), start+runs+2, 64, 100)
	threads := in.Threads
	w := NewWorkspace()
	var out Assignment
	n := start
	solve := func() {
		in.Threads = threads[:n]
		gs := w.Linearize(in, w.SuperOptimal(in))
		w.Assign2Linearized(in, gs, &out)
		n++
	}
	solve() // size the buffers
	if allocs := testing.AllocsPerRun(runs, solve); allocs != 0 {
		t.Fatalf("growing-instance solve allocates %v per op, want 0", allocs)
	}
	if len(out.Server) != n-1 {
		t.Fatalf("last solve assigned %d threads, want %d", len(out.Server), n-1)
	}
}

// TestSplitGroupZeroAllocs pins the per-server split's contract: once
// the workspace has split a group as large as the next, SplitGroup
// allocates nothing, and each group's split is bit-identical to Split's
// share of the same placement.
func TestSplitGroupZeroAllocs(t *testing.T) {
	in := randomInstance(rng.New(25), 40, 4, 100)
	groups := Groups(roundRobin(in), in.M)
	want := make([]float64, in.N())
	wantTotal := Split(in.Threads, groups, []float64{in.C, in.C, in.C, in.C}, SplitConcave, nil, want)
	w := NewWorkspace()
	split := func() {
		total := 0.0
		for _, group := range groups {
			res := w.SplitGroup(in.Threads, group, in.C, in.C, SplitConcave, nil)
			total += res.Total
			for k, i := range group {
				if res.Alloc[k] != want[i] {
					t.Fatalf("thread %d: SplitGroup %v, Split %v", i, res.Alloc[k], want[i])
				}
			}
		}
		if total != wantTotal {
			t.Fatalf("SplitGroup total %v, Split %v", total, wantTotal)
		}
	}
	split() // size the scratch
	if allocs := testing.AllocsPerRun(50, split); allocs != 0 {
		t.Fatalf("SplitGroup allocates %v per group set in steady state, want 0", allocs)
	}
}
