package online

import (
	"fmt"
	"testing"

	"aa/internal/core"
	"aa/internal/rng"
	"aa/internal/utility"
)

func randomUtility(r *rng.Rand, c float64) utility.Func {
	switch r.Intn(3) {
	case 0:
		return utility.Log{Scale: r.Uniform(0.5, 5), Shift: r.Uniform(1, c/4), C: c}
	case 1:
		return utility.SatExp{Scale: r.Uniform(0.5, 5), K: r.Uniform(c/30, c/3), C: c}
	default:
		return utility.Power{Scale: r.Uniform(0.3, 2), Beta: r.Uniform(0.3, 0.9), C: c}
	}
}

// randomTimeline builds a churny workload: waves of arrivals, departures
// and drifts with strictly increasing times.
func randomTimeline(r *rng.Rand, c float64, events int) []Event {
	var out []Event
	nextID := 0
	active := []int{}
	t := 0.0
	for len(out) < events {
		t += r.Uniform(0.5, 2)
		switch {
		case len(active) == 0 || r.Float64() < 0.45:
			out = append(out, Event{Time: t, Kind: Arrive, ID: nextID, Util: randomUtility(r, c)})
			active = append(active, nextID)
			nextID++
		case r.Float64() < 0.5 && len(active) > 0:
			k := r.Intn(len(active))
			out = append(out, Event{Time: t, Kind: Depart, ID: active[k]})
			active = append(active[:k], active[k+1:]...)
		default:
			k := r.Intn(len(active))
			out = append(out, Event{Time: t, Kind: Drift, ID: active[k], Util: randomUtility(r, c)})
		}
	}
	return out
}

func TestSimulateAllPoliciesFeasibleOnRandomChurn(t *testing.T) {
	base := rng.New(11)
	policies := []Policy{FullResolve{}, Incremental{}, Hybrid{Threshold: 0.83}}
	for trial := 0; trial < 8; trial++ {
		r := base.Split(uint64(trial))
		events := randomTimeline(r, 100, 40)
		for _, p := range policies {
			res, err := Simulate(3, 100, events, p, 1.0, 1e9)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, p.Name(), err)
			}
			if res.UtilityIntegral < 0 {
				t.Errorf("%s: negative utility integral", p.Name())
			}
		}
	}
}

func TestFullResolveDominatesIncrementalUtility(t *testing.T) {
	// Ignoring migration costs, re-solving on every event can only help.
	base := rng.New(12)
	for trial := 0; trial < 6; trial++ {
		r := base.Split(uint64(trial))
		events := randomTimeline(r, 100, 50)
		full, err := Simulate(3, 100, events, FullResolve{}, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Simulate(3, 100, events, Incremental{}, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if full.UtilityIntegral < inc.UtilityIntegral*(1-1e-9)-1e-9 {
			t.Errorf("trial %d: full %v < incremental %v", trial, full.UtilityIntegral, inc.UtilityIntegral)
		}
	}
}

func TestIncrementalNeverMigrates(t *testing.T) {
	r := rng.New(13)
	events := randomTimeline(r, 100, 60)
	res, err := Simulate(4, 100, events, Incremental{}, 10, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("incremental migrated %d times", res.Migrations)
	}
}

func TestHighMigrationCostFavorsIncremental(t *testing.T) {
	base := rng.New(14)
	betterNet := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		r := base.Split(uint64(trial))
		events := randomTimeline(r, 100, 50)
		horizon := events[len(events)-1].Time + 1
		const cost = 1e6 // absurd move cost
		full, err := Simulate(3, 100, events, FullResolve{}, cost, horizon)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Simulate(3, 100, events, Incremental{}, cost, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Net >= full.Net {
			betterNet++
		}
	}
	if betterNet < trials-1 {
		t.Errorf("incremental had better net in only %d/%d trials under huge move cost", betterNet, trials)
	}
}

func TestHybridBetweenExtremes(t *testing.T) {
	// Trajectory effects mean strict pathwise dominance does not hold
	// event-by-event, but on aggregate hybrid should sit near or above
	// incremental in utility while migrating far less than full resolve.
	base := rng.New(15)
	var hybU, incU float64
	var hybMig, fullMig int
	for trial := 0; trial < 5; trial++ {
		r := base.Split(uint64(trial))
		events := randomTimeline(r, 100, 60)
		full, err := Simulate(3, 100, events, FullResolve{}, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := Simulate(3, 100, events, Incremental{}, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := Simulate(3, 100, events, Hybrid{Threshold: 0.83}, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		hybU += hyb.UtilityIntegral
		incU += inc.UtilityIntegral
		hybMig += hyb.Migrations
		fullMig += full.Migrations
		if hyb.UtilityIntegral > full.UtilityIntegral*1.05 {
			t.Errorf("trial %d: hybrid %v implausibly above full resolve %v",
				trial, hyb.UtilityIntegral, full.UtilityIntegral)
		}
	}
	if hybU < incU*0.98 {
		t.Errorf("hybrid aggregate utility %v below incremental %v", hybU, incU)
	}
	if hybMig >= fullMig {
		t.Errorf("hybrid migrated %d times, full resolve %d — expected far fewer", hybMig, fullMig)
	}
}

func TestSimulateErrors(t *testing.T) {
	f := utility.Linear{Slope: 1, C: 10}
	cases := []struct {
		name   string
		events []Event
	}{
		{"out of order", []Event{
			{Time: 5, Kind: Arrive, ID: 0, Util: f},
			{Time: 1, Kind: Arrive, ID: 1, Util: f},
		}},
		{"arrival without utility", []Event{{Time: 1, Kind: Arrive, ID: 0}}},
		{"duplicate arrival", []Event{
			{Time: 1, Kind: Arrive, ID: 0, Util: f},
			{Time: 2, Kind: Arrive, ID: 0, Util: f},
		}},
		{"drift without utility", []Event{
			{Time: 1, Kind: Arrive, ID: 0, Util: f},
			{Time: 2, Kind: Drift, ID: 0},
		}},
	}
	for _, tc := range cases {
		if _, err := Simulate(2, 10, tc.events, FullResolve{}, 0, 100); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDriftForDepartedThreadIgnored(t *testing.T) {
	f := utility.Linear{Slope: 1, C: 10}
	events := []Event{
		{Time: 1, Kind: Arrive, ID: 0, Util: f},
		{Time: 2, Kind: Depart, ID: 0},
		{Time: 3, Kind: Drift, ID: 0, Util: f},
	}
	res, err := Simulate(2, 10, events, FullResolve{}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalThreads != 0 {
		t.Errorf("final threads %d, want 0", res.FinalThreads)
	}
}

func TestUtilityIntegralSimpleCase(t *testing.T) {
	// One linear thread arrives at t=2 on a 10-capacity server: rate 10
	// from t=2 to horizon 7 → integral 50.
	f := utility.Linear{Slope: 1, C: 10}
	events := []Event{{Time: 2, Kind: Arrive, ID: 0, Util: f}}
	res, err := Simulate(1, 10, events, FullResolve{}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.UtilityIntegral - 50; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("integral %v, want 50", res.UtilityIntegral)
	}
}

func TestEventsAfterHorizonIgnored(t *testing.T) {
	f := utility.Linear{Slope: 1, C: 10}
	events := []Event{
		{Time: 1, Kind: Arrive, ID: 0, Util: f},
		{Time: 100, Kind: Arrive, ID: 1, Util: f},
	}
	res, err := Simulate(1, 10, events, FullResolve{}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalThreads != 1 {
		t.Errorf("final threads %d, want 1", res.FinalThreads)
	}
}

func TestPolicyNames(t *testing.T) {
	if (FullResolve{}).Name() != "full-resolve" {
		t.Error((FullResolve{}).Name())
	}
	if (Incremental{}).Name() != "incremental" {
		t.Error((Incremental{}).Name())
	}
	if got := (Hybrid{Threshold: 0.83}).Name(); got != fmt.Sprintf("hybrid(%.2f)", 0.83) {
		t.Error(got)
	}
}

// TestReallocServerMatchesSplit: re-allocating one server gives every
// member the bits core.Split gives the same group (its slots in slot
// order) on a server of capacity C.
func TestReallocServerMatchesSplit(t *testing.T) {
	const m, c = 3, 100.0
	r := rng.New(31)
	s := NewState(m, c)
	for id := 0; id < 30; id++ {
		s.add(3*id+1, randomUtility(r, 1.5*c)) // some curves reach past C
		s.SetPlacement(3*id+1, Placement{Server: r.Intn(m)})
	}
	groups := make([][]int, m)
	for k, p := range s.pl {
		groups[p.Server] = append(groups[p.Server], k)
	}
	want := make([]float64, s.Len())
	core.Split(s.Funcs(), groups, []float64{c, c, c}, core.SplitConcave, nil, want)
	for j := 0; j < m; j++ {
		s.reallocServer(j)
	}
	for k, id := range s.IDs() {
		if p, _ := s.Placement(id); p.Alloc != want[k] {
			t.Fatalf("thread %d: reallocServer %v, core.Split %v", id, p.Alloc, want[k])
		}
	}
}

// countingLinear is a linear utility that counts its Value calls.
type countingLinear struct {
	utility.Linear
	calls *int
}

func (f countingLinear) Value(x float64) float64 {
	*f.calls++
	return f.Linear.Value(x)
}

// parkPolicy places every thread on server 0 with an equal share of C,
// calling no utility method.
type parkPolicy struct{ share float64 }

func (parkPolicy) Name() string { return "park" }

func (p parkPolicy) React(s *State, ev Event) []int {
	for _, id := range s.IDs() {
		s.SetPlacement(id, Placement{Server: 0, Alloc: p.share})
	}
	return nil
}

// TestSimulateOneUtilityPassPerEvent: the simulator evaluates the
// state's utility once per applied event and hands it to the hook, so
// a run with n threads sees n Value calls per event, not one pass for
// the interval before the event and another for the hook.
func TestSimulateOneUtilityPassPerEvent(t *testing.T) {
	const n, c, drifts = 40, 10.0, 25
	calls := 0
	util := func(i int) utility.Func {
		return countingLinear{Linear: utility.Linear{Slope: float64(1 + i%3), C: c}, calls: &calls}
	}
	batch := make([]BatchArrival, n)
	for i := range batch {
		batch[i] = BatchArrival{ID: i, Util: util(i)}
	}
	events := []Event{{Time: 1, Kind: ArriveBatch, ID: -1, Batch: batch}}
	for k := 0; k < drifts; k++ {
		events = append(events, Event{Time: float64(2 + k), Kind: Drift, ID: k % n, Util: util(k + 1)})
	}
	want := 0.0 // the utility integral, from the hook's rates
	hook := func(info EventInfo, s *State) {
		end := 100.0
		if info.Index+1 < len(events) {
			end = events[info.Index+1].Time
		}
		want += info.Utility * (end - info.Event.Time)
	}
	res, err := SimulateOpts(2, c, events, parkPolicy{share: c / n}, Options{Horizon: 100, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if wantCalls := n * len(events); calls != wantCalls {
		t.Errorf("%d Value calls over %d events of %d threads, want %d (one pass per event)",
			calls, len(events), n, wantCalls)
	}
	if res.UtilityIntegral != want {
		t.Errorf("utility integral %v, the hook's rates integrate to %v", res.UtilityIntegral, want)
	}
}
