package online

import (
	"testing"

	"aa/internal/rng"
)

// TestReactSteadyStateAllocs pins the scratch-reuse contract: once a
// policy has reacted to a populated state, further reactions that do
// not grow the system (drifts, and full re-solves of a stable thread
// set) allocate nothing — the instance snapshot, the engine
// request/response, Hybrid's super-optimal workspace and the per-server
// reallocation buffers all live in the state's scratch.
func TestReactSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"full-resolve", FullResolve{}},
		{"incremental", Incremental{}},
		{"hybrid", Hybrid{Threshold: 0.83}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewState(4, 100)
			r := rng.New(3)
			for id := 0; id < 24; id++ {
				s.add(id, randomUtility(r, 100))
			}
			ev := Event{Time: 1, Kind: Drift, ID: 0, Util: s.Funcs()[0]}
			// Warm: size the scratch and place every thread.
			FullResolve{}.React(s, ev)
			tc.policy.React(s, ev)
			allocs := testing.AllocsPerRun(20, func() { tc.policy.React(s, ev) })
			if allocs != 0 {
				t.Fatalf("%s drift react allocates %v per op in steady state, want 0", tc.name, allocs)
			}
		})
	}
}
