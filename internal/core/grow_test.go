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
