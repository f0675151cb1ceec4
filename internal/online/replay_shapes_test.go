package online

// Replay-shaped workloads: the event patterns the trace-driven replay
// simulator (internal/replay) feeds through Simulate — departure-heavy
// drains, the empty-system edge, and failure/recovery of servers that
// hold assigned threads — exercised here against every policy.

import (
	"math"
	"strings"
	"testing"

	"aa/internal/rng"
	"aa/internal/utility"
)

func allPolicies() []Policy {
	return []Policy{FullResolve{}, Incremental{}, Hybrid{Threshold: 0.83}}
}

// A departure-heavy sequence: a burst of arrivals followed by a long
// drain down to an empty system, with utility accounting staying
// consistent the whole way.
func TestDepartureHeavyDrain(t *testing.T) {
	r := rng.New(21)
	const c, n = 100.0, 24
	var events []Event
	tm := 0.0
	for id := 0; id < n; id++ {
		tm += 0.25
		events = append(events, Event{Time: tm, Kind: Arrive, ID: id, Util: randomUtility(r, c)})
	}
	for id := 0; id < n; id++ {
		tm += 1.5
		events = append(events, Event{Time: tm, Kind: Depart, ID: id})
	}
	for _, p := range allPolicies() {
		var finalSeen int
		hook := func(info EventInfo, s *State) {
			finalSeen = s.Len()
			if err := s.Validate(1e-6); err != nil {
				t.Fatalf("%s: invalid state after event %d: %v", p.Name(), info.Index, err)
			}
		}
		res, err := SimulateOpts(3, c, events, p, Options{Horizon: 1e9, Hook: hook})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.FinalThreads != 0 || finalSeen != 0 {
			t.Errorf("%s: system not drained: final=%d hook=%d", p.Name(), res.FinalThreads, finalSeen)
		}
		if res.UtilityIntegral <= 0 {
			t.Errorf("%s: utility integral %v", p.Name(), res.UtilityIntegral)
		}
	}
}

// The empty-system edge: departures and drifts of unknown threads,
// failures and recoveries with nothing placed, and utility zero
// throughout.
func TestEmptySystemEdge(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: Depart, ID: 7},
		{Time: 2, Kind: Fail, ID: 0},
		{Time: 3, Kind: Drift, ID: 7, Util: utility.Linear{Slope: 1, C: 100}},
		{Time: 4, Kind: Recover, ID: 0},
	}
	for _, p := range allPolicies() {
		res, err := Simulate(2, 100, events, p, 1e9)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.UtilityIntegral != 0 || res.Migrations != 0 || res.FinalThreads != 0 {
			t.Errorf("%s: empty system produced %+v", p.Name(), res)
		}
	}
}

// Failure of a server holding assigned threads: every thread must end
// up off the failed server with the state feasible, and recovery must
// make the server usable again.
func TestFailureEvacuatesAssignedThreads(t *testing.T) {
	r := rng.New(22)
	const c = 100.0
	var events []Event
	for id := 0; id < 9; id++ {
		events = append(events, Event{Time: 1 + float64(id)*0.1, Kind: Arrive, ID: id, Util: randomUtility(r, c)})
	}
	events = append(events,
		Event{Time: 5, Kind: Fail, ID: 1},
		Event{Time: 6, Kind: Arrive, ID: 100, Util: randomUtility(r, c)},
		Event{Time: 9, Kind: Recover, ID: 1},
		Event{Time: 10, Kind: Arrive, ID: 101, Util: randomUtility(r, c)},
	)
	for _, p := range allPolicies() {
		sawDownWindow := false
		hook := func(info EventInfo, s *State) {
			if err := s.Validate(1e-6); err != nil {
				t.Fatalf("%s: invalid state after event %d (%v): %v", p.Name(), info.Index, info.Event.Kind, err)
			}
			if info.Event.Time >= 5 && info.Event.Time < 9 {
				sawDownWindow = true
				if s.ServerUp(1) {
					t.Fatalf("%s: server 1 up during failure window", p.Name())
				}
				if got := s.UpCount(); got != 2 {
					t.Fatalf("%s: UpCount %d during failure, want 2", p.Name(), got)
				}
				for _, id := range s.IDs() {
					if pl, _ := s.Placement(id); pl.Server == 1 {
						t.Fatalf("%s: thread %d still on failed server at t=%v", p.Name(), id, info.Event.Time)
					}
				}
			}
			if info.Event.Kind == Recover {
				if !s.ServerUp(1) || s.UpCount() != 3 {
					t.Fatalf("%s: server 1 not usable after recovery", p.Name())
				}
			}
		}
		res, err := SimulateOpts(3, c, events, p, Options{Horizon: 1e9, Hook: hook})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !sawDownWindow {
			t.Fatalf("%s: hook never saw the failure window", p.Name())
		}
		if res.FinalThreads != 11 {
			t.Errorf("%s: final threads %d, want 11", p.Name(), res.FinalThreads)
		}
		if res.Migrations == 0 {
			t.Errorf("%s: failure caused no migrations", p.Name())
		}
	}
}

// Whole-cluster failure: with every server down, arrivals cannot be
// placed and the simulation must report the infeasibility rather than
// silently continuing.
func TestAllServersDown(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: Fail, ID: 0},
		{Time: 2, Kind: Fail, ID: 1},
		{Time: 3, Kind: Arrive, ID: 0, Util: utility.Linear{Slope: 1, C: 100}},
	}
	for _, p := range allPolicies() {
		_, err := Simulate(2, 100, events, p, 1e9)
		if err == nil {
			t.Errorf("%s: arrival with all servers down succeeded", p.Name())
		}
	}
}

// Invalid failure timelines must be rejected with a useful error.
func TestFailureTimelineValidation(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"bad server", []Event{{Time: 1, Kind: Fail, ID: 9}}, "invalid server"},
		{"double fail", []Event{
			{Time: 1, Kind: Fail, ID: 0},
			{Time: 2, Kind: Fail, ID: 0},
		}, "already down"},
		{"recover while up", []Event{{Time: 1, Kind: Recover, ID: 0}}, "recovered while up"},
	}
	for _, tc := range cases {
		_, err := Simulate(2, 100, tc.events, FullResolve{}, 1e9)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// Loads must be bit-stable across calls on the same state: placement
// decisions compare these float sums, so map-order accumulation would
// make replay nondeterministic (regression test for the sorted-order
// fix).
func TestLoadsDeterministic(t *testing.T) {
	r := rng.New(23)
	s := NewState(4, 100)
	for id := 0; id < 40; id++ {
		s.add(id, randomUtility(r, 100))
		s.SetPlacement(id, Placement{Server: id % 4, Alloc: r.Uniform(0.1, 2.3)})
	}
	first := s.Loads()
	for i := 0; i < 50; i++ {
		again := s.Loads()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("Loads()[%d] changed between calls: %v vs %v", j, first[j], again[j])
			}
		}
	}
}

// TestLeastLoadedTiesOnRoundOff: two full servers whose loads differ
// by one ULP are equally loaded, so an arrival lands on the lower id
// rather than on whichever side the allocation's round-off fell.
func TestLeastLoadedTiesOnRoundOff(t *testing.T) {
	const c = 10.0
	for _, low := range []int{0, 1} {
		s := NewState(3, c)
		s.SetServerDown(0, true)
		for j := 1; j <= 2; j++ {
			s.add(j, utility.Linear{Slope: 1, C: c})
			load := c
			if j == 1+low {
				load = math.Nextafter(c, 0)
			}
			s.SetPlacement(j, Placement{Server: j, Alloc: load})
		}
		s.add(3, utility.Linear{Slope: 1, C: c})
		(Incremental{}).React(s, Event{Kind: Arrive, ID: 3})
		if p, _ := s.Placement(3); p.Server != 1 {
			t.Fatalf("one-ULP lighter server %d: arrival went to server %d, want 1 (lowest up id)", 1+low, p.Server)
		}
	}
}

// Loads returns the per-server allocation sums as a new slice.
func (s *State) Loads() []float64 {
	return append([]float64(nil), s.sumLoads()...)
}
