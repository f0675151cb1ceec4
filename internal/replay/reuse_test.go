package replay

// The hook takes ∫F̂'s per-event bound from the engine's solve when that
// solve ran on exactly the hook's instance through an uncached engine.
// These tests pin that the reuse is invisible in the report and that a
// cached engine's (conservative) bound is never reused.

import (
	"bytes"
	"math"
	"testing"

	"aa/internal/core"
	"aa/internal/utility"
)

// canonicalJSON renders a report's deterministic part for byte
// comparison.
func canonicalJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Canonical().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBoundReuseMatchesRecompute(t *testing.T) {
	for _, name := range Builtins() {
		for _, policy := range []string{"full-resolve", "incremental", "hybrid"} {
			for _, seed := range []uint64{1, 4} {
				sc := shrink(t, name)
				sc.Policy = policy
				reuse := &solveObserver{}
				got, err := run(sc, RunOptions{Seed: seed}, reuse)
				if err != nil {
					t.Fatal(err)
				}
				recompute := &solveObserver{noReuse: true}
				want, err := run(sc, RunOptions{Seed: seed}, recompute)
				if err != nil {
					t.Fatal(err)
				}
				label := name + "/" + policy
				if g, w := canonicalJSON(t, got), canonicalJSON(t, want); !bytes.Equal(g, w) {
					t.Fatalf("%s seed %d: reusing the solve's bound changed the report: %s",
						label, seed, firstDiff(string(g), string(w)))
				}
				if recompute.reused != 0 {
					t.Fatalf("%s seed %d: forced-off run reused %d bounds", label, seed, recompute.reused)
				}
				// Full-resolve solves after every event with threads, so
				// the reuse path must actually have run.
				if policy == "full-resolve" && reuse.reused == 0 {
					t.Fatalf("%s seed %d: no bound was reused over %d solves", label, seed, reuse.count)
				}
				if reuse.reused > reuse.count {
					t.Fatalf("%s seed %d: %d bounds reused from %d solves", label, seed, reuse.reused, reuse.count)
				}
			}
		}
	}
}

func TestBoundReuseOffWithCache(t *testing.T) {
	sc := churnScenario(t)
	obs := &solveObserver{}
	got, err := run(sc, RunOptions{Seed: 42, Cache: newReplayCache(t), WarmK: 8}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if obs.count == 0 {
		t.Fatal("cached replay ran no solves")
	}
	if obs.reused != 0 {
		t.Fatalf("cached replay reused %d engine bounds, want 0", obs.reused)
	}
	want, err := run(sc, RunOptions{Seed: 42, Cache: newReplayCache(t), WarmK: 8}, &solveObserver{noReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("cached replay report depends on the reuse switch: %s", firstDiff(string(g), string(w)))
	}
}

// TestSolvedBoundMatchesOnlyTheHookInstance pins the matching rule on
// its own: the bound is reused only for a successful solve with a bound
// on the same server count, capacity and thread slice, with reuse on.
func TestSolvedBoundMatchesOnlyTheHookInstance(t *testing.T) {
	threads := []utility.Func{utility.Linear{Slope: 1, C: 10}, utility.Linear{Slope: 2, C: 10}}
	hook := core.Instance{M: 2, C: 10, Threads: threads}
	for _, tc := range []struct {
		name string
		edit func(a *accumulator)
		want bool
	}{
		{"same instance", func(*accumulator) {}, true},
		{"reuse off", func(a *accumulator) { a.reuseBound = false }, false},
		{"failed solve", func(a *accumulator) { a.obs.solved = false }, false},
		{"no bound", func(a *accumulator) { a.obs.bound = math.NaN() }, false},
		{"other server count", func(a *accumulator) { a.obs.last.M = 3 }, false},
		{"other capacity", func(a *accumulator) { a.obs.last.C = 20 }, false},
		{"shorter thread slice", func(a *accumulator) { a.obs.last.Threads = threads[:1] }, false},
		{"copied thread slice", func(a *accumulator) {
			a.obs.last.Threads = append([]utility.Func(nil), threads...)
		}, false},
	} {
		a := &accumulator{reuseBound: true, obs: &solveObserver{last: hook, bound: 5, solved: true}}
		tc.edit(a)
		if got := a.solvedBound(&hook); got != tc.want {
			t.Errorf("%s: solvedBound = %v, want %v", tc.name, got, tc.want)
		}
	}
}
