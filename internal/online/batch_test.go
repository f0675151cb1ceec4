package online

import (
	"strings"
	"testing"

	"aa/internal/rng"
)

// batchOf draws n random-utility members with ids starting at base.
func batchOf(r *rng.Rand, c float64, base, n int) []BatchArrival {
	out := make([]BatchArrival, n)
	for i := range out {
		out[i] = BatchArrival{ID: base + i, Util: randomUtility(r, c)}
	}
	return out
}

// TestArriveBatchFeasibleAllPolicies: a cohort admission followed by
// churn must leave every policy in a feasible state, with every batch
// member placed.
func TestArriveBatchFeasibleAllPolicies(t *testing.T) {
	base := rng.New(21)
	for pi, p := range []Policy{FullResolve{}, Incremental{}, Hybrid{Threshold: 0.83}} {
		r := base.Split(uint64(pi))
		events := []Event{{Time: 0, Kind: ArriveBatch, ID: -1, Batch: batchOf(r, 100, 0, 40)}}
		t2 := 0.0
		for _, ev := range randomTimeline(r, 100, 20) {
			ev.ID += 40 // churn ids above the batch
			t2 = ev.Time + 1
			events = append(events, ev)
		}
		res, err := Simulate(4, 100, events, p, t2+10)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.FinalThreads < 40-20 {
			t.Errorf("%s: final threads %d, batch members lost", p.Name(), res.FinalThreads)
		}
		if res.UtilityIntegral <= 0 {
			t.Errorf("%s: utility integral %v", p.Name(), res.UtilityIntegral)
		}
	}
}

// TestArriveBatchSpreads: the incremental placement must not stack the
// cohort on one server — the capped-demand load estimate spreads it.
func TestArriveBatchSpreads(t *testing.T) {
	r := rng.New(22)
	s := NewState(4, 100)
	batch := batchOf(r, 100, 0, 32)
	for _, ba := range batch {
		s.add(ba.ID, ba.Util)
	}
	s.placeBatch(batch)
	used := map[int]int{}
	for _, ba := range batch {
		p, ok := s.Placement(ba.ID)
		if !ok {
			t.Fatalf("batch member %d unplaced", ba.ID)
		}
		used[p.Server]++
	}
	if len(used) != 4 {
		t.Errorf("32 threads over 4 servers used only %d servers: %v", len(used), used)
	}
	if err := s.Validate(1e-9); err != nil {
		t.Error(err)
	}
}

// TestArriveBatchNoSelfMigrations: admitting a cohort under
// full-resolve counts no migrations when nothing was placed before.
func TestArriveBatchNoSelfMigrations(t *testing.T) {
	r := rng.New(23)
	events := []Event{{Time: 0, Kind: ArriveBatch, ID: -1, Batch: batchOf(r, 100, 0, 25)}}
	res, err := Simulate(3, 100, events, FullResolve{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("cohort admission counted %d migrations", res.Migrations)
	}
	if res.FinalThreads != 25 {
		t.Errorf("final threads %d, want 25", res.FinalThreads)
	}
}

// TestArriveBatchErrors: empty cohorts, missing utilities and duplicate
// ids (within the batch or against earlier arrivals) are rejected.
func TestArriveBatchErrors(t *testing.T) {
	r := rng.New(24)
	u := randomUtility(r, 100)
	for name, tc := range map[string]struct {
		events []Event
		want   string
	}{
		"empty batch": {
			[]Event{{Time: 0, Kind: ArriveBatch, ID: -1}}, "empty arrival batch"},
		"nil utility": {
			[]Event{{Time: 0, Kind: ArriveBatch, ID: -1, Batch: []BatchArrival{{ID: 0}}}},
			"without utility"},
		"duplicate inside batch": {
			[]Event{{Time: 0, Kind: ArriveBatch, ID: -1,
				Batch: []BatchArrival{{ID: 7, Util: u}, {ID: 7, Util: u}}}},
			"duplicate arrival 7"},
		"duplicate of prior arrival": {
			[]Event{
				{Time: 0, Kind: Arrive, ID: 3, Util: u},
				{Time: 1, Kind: ArriveBatch, ID: -1, Batch: []BatchArrival{{ID: 3, Util: u}}}},
			"duplicate arrival 3"},
	} {
		_, err := Simulate(2, 100, tc.events, FullResolve{}, 10)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", name, err, tc.want)
		}
	}
}

func TestArriveBatchKindString(t *testing.T) {
	if got := ArriveBatch.String(); got != "arrive-batch" {
		t.Errorf("ArriveBatch.String() = %q", got)
	}
}
