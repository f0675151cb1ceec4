package online

import (
	"errors"
	"testing"

	"aa/internal/check"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Every policy must stay clean under the stricter cap-aware per-event
// check, and enabling it must not change the simulation outcome.
func TestSimulateCheckedCleanOnRandomChurn(t *testing.T) {
	base := rng.New(13)
	policies := []Policy{FullResolve{}, Incremental{}, Hybrid{Threshold: 0.83}}
	for trial := 0; trial < 4; trial++ {
		r := base.Split(uint64(trial))
		events := randomTimeline(r, 100, 30)
		for _, p := range policies {
			plain, err := Simulate(3, 100, events, p, 1e9)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, p.Name(), err)
			}
			check.Enable()
			c0, v0 := check.Totals()
			checked, err := Simulate(3, 100, events, p, 1e9)
			c1, v1 := check.Totals()
			check.Disable()
			if err != nil {
				t.Fatalf("trial %d, %s checked: %v", trial, p.Name(), err)
			}
			if c1 == c0 {
				t.Fatal("check.Enable did not run per-event checks")
			}
			if v1 != v0 {
				t.Errorf("%s: clean timeline grew aa_check_violations_total by %d", p.Name(), v1-v0)
			}
			// TotalUtility is a fixed-order sum, so checking must not
			// change a single bit of the result.
			if plain != checked {
				t.Errorf("%s: checking changed the result: %+v != %+v", p.Name(), plain, checked)
			}
		}
	}
}

func TestStateCheckCatchesCapViolation(t *testing.T) {
	s := NewState(2, 100)
	s.add(0, utility.Linear{Slope: 1, C: 30})
	// Past the thread's own cap but within server capacity: invisible to
	// Validate, caught by the cap-aware Check.
	s.SetPlacement(0, Placement{Server: 0, Alloc: 50})
	if err := s.Validate(1e-6); err != nil {
		t.Fatalf("Validate rejected what it historically accepted: %v", err)
	}
	if err := s.Check(check.DefaultEps); !errors.Is(err, check.ErrInfeasible) {
		t.Errorf("Check: got %v, want ErrInfeasible", err)
	}

	s.SetPlacement(0, Placement{Server: 0, Alloc: 30})
	if err := s.Check(check.DefaultEps); err != nil {
		t.Errorf("feasible placement rejected: %v", err)
	}

	if err := NewState(2, 100).Check(check.DefaultEps); err != nil {
		t.Errorf("empty state rejected: %v", err)
	}
}
