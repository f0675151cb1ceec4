package hetero

import (
	"testing"

	"aa/internal/rng"
)

// TestWorkspaceMatchesDirect pins that the pooled solve is bit-identical
// to the allocating entry points.
func TestWorkspaceMatchesDirect(t *testing.T) {
	base := rng.New(17)
	var w Workspace
	var a Assignment
	for trial := 0; trial < 10; trial++ {
		r := base.Split(uint64(trial))
		in := randomSkewInstance(r, 15+trial, []float64{200, 80, 60, 60})
		want := Assign(in)
		wantSO := SuperOptimal(in)
		bound := w.Assign(in, &a)
		if bound != wantSO.Total {
			t.Fatalf("trial %d: bound %v, want %v", trial, bound, wantSO.Total)
		}
		for i := range want.Server {
			if a.Server[i] != want.Server[i] || a.Alloc[i] != want.Alloc[i] {
				t.Fatalf("trial %d thread %d: got (%d, %v), want (%d, %v)",
					trial, i, a.Server[i], a.Alloc[i], want.Server[i], want.Alloc[i])
			}
		}
	}
}

// TestSkewSolveSteadyStateAllocs pins the series-solve contract: after
// the first solve sizes the arena, repeat solves of same-shape
// instances allocate nothing.
func TestSkewSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	in := randomSkewInstance(rng.New(5), 20, []float64{220, 60, 60, 60})
	var w Workspace
	var a Assignment
	w.Assign(in, &a)
	allocs := testing.AllocsPerRun(20, func() { w.Assign(in, &a) })
	if allocs != 0 {
		t.Fatalf("workspace Assign allocates %v per op in steady state, want 0", allocs)
	}
}
