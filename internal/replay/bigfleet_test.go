package replay

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestBigfleetScaled: the bigfleet family (batch admission at t=0 plus
// churn) must replay deterministically at test scale and report the
// cohort in its trace stats. The full 2×10⁵-thread builtin runs under
// TestBigfleetFullSize.
func TestBigfleetScaled(t *testing.T) {
	sc := shrink(t, "bigfleet")
	var a, b bytes.Buffer
	for i, buf := range []*bytes.Buffer{&a, &b} {
		rep, err := Run(sc, RunOptions{Seed: 9})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.Trace.Batches != 1 {
			t.Fatalf("run %d: %d batch events, want 1", i, rep.Trace.Batches)
		}
		if rep.Trace.Arrivals < sc.InitialThreads {
			t.Fatalf("run %d: %d arrivals, want >= %d cohort members",
				i, rep.Trace.Arrivals, sc.InitialThreads)
		}
		if rep.Utility.FinalThreads < sc.InitialThreads {
			t.Fatalf("run %d: %d final threads, cohort should persist to the horizon",
				i, rep.Utility.FinalThreads)
		}
		if err := rep.Canonical().WriteJSON(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed bigfleet reports differ:\n%s", firstDiff(a.String(), b.String()))
	}
}

// TestBigfleetFullSize runs the unshrunken builtin — a 2×10⁵-thread
// standing fleet, the largest single re-solves (n = 2×10⁵). Minutes of
// work on a small machine, so opt-in.
func TestBigfleetFullSize(t *testing.T) {
	if os.Getenv("AA_REPLAY_BIGFLEET") == "" {
		t.Skip("set AA_REPLAY_BIGFLEET=1 to replay the full-size bigfleet scenario")
	}
	sc, ok := Builtin("bigfleet")
	if !ok {
		t.Fatal("no bigfleet builtin")
	}
	rep, err := Run(sc, RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utility.FinalThreads < sc.InitialThreads {
		t.Fatalf("final threads %d, want >= %d", rep.Utility.FinalThreads, sc.InitialThreads)
	}
	if !(rep.Utility.Ratio > 0.8) {
		t.Errorf("full-resolve utility/bound ratio %v, want > 0.8", rep.Utility.Ratio)
	}
}

// TestDecodeTraceBatch: recorded traces can carry arrive-batch events,
// and they replay.
func TestDecodeTraceBatch(t *testing.T) {
	src := `{
		"name": "fleet", "servers": 2, "capacity": 100,
		"events": [
			{"t": 0, "kind": "arrive-batch", "batch": [
				{"id": 0, "v": 3, "w": 1},
				{"id": 1, "v": 2},
				{"id": 2, "v": 4, "w": 2}
			]},
			{"t": 5, "kind": "depart", "id": 1}
		]
	}`
	sc, events, err := DecodeTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || len(events[0].Batch) != 3 || events[0].ID != -1 {
		t.Fatalf("bad decode: %+v", events)
	}
	rep, err := Run(sc, RunOptions{Seed: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Batches != 1 || rep.Trace.Arrivals != 3 || rep.Utility.FinalThreads != 2 {
		t.Fatalf("batch replay stats: %+v final=%d", rep.Trace, rep.Utility.FinalThreads)
	}
}

// TestDecodeTraceBatchErrors: empty cohorts are rejected at decode time.
func TestDecodeTraceBatchErrors(t *testing.T) {
	src := `{"servers":2,"capacity":10,"events":[{"t":0,"kind":"arrive-batch"}]}`
	if _, _, err := DecodeTrace(strings.NewReader(src)); err == nil {
		t.Fatal("empty arrive-batch accepted")
	}
}
