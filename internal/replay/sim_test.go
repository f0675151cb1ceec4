package replay

import (
	"bytes"
	"strings"
	"testing"

	"aa/internal/telemetry"
)

// The determinism contract (mgpusim idiom): running the same scenario
// with the same seed twice must produce bit-identical canonical JSON
// reports. This is the Go-test half of the CI replay gate.
func TestRunDeterministic(t *testing.T) {
	for _, name := range Builtins() {
		t.Run(name, func(t *testing.T) {
			sc := shrink(t, name)
			var a, b bytes.Buffer
			for i, buf := range []*bytes.Buffer{&a, &b} {
				rep, err := Run(sc, RunOptions{Seed: 42})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if err := rep.Canonical().WriteJSON(buf); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("same-seed reports differ:\n--- first ---\n%s\n--- second ---\n%s",
					firstDiff(a.String(), b.String()), "")
			}
		})
	}
}

// shrink returns a builtin scenario with the horizon cut down so tests
// stay fast while still exercising every generator of the family.
func shrink(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, ok := Builtin(name)
	if !ok {
		t.Fatalf("no builtin %q", name)
	}
	sc.Horizon /= 8
	if sc.Arrivals.Diurnal != nil {
		sc.Arrivals.Diurnal.Period /= 8
	}
	for i := range sc.Arrivals.Bursts {
		sc.Arrivals.Bursts[i].Start /= 8
		sc.Arrivals.Bursts[i].Duration /= 8
	}
	if sc.Failures != nil {
		sc.Failures.MTBF /= 8
		sc.Failures.MTTR /= 8
	}
	// A bigfleet's 2×10⁵-thread batch would dominate every test run;
	// 500 threads still exercises the batch machinery end to end (the
	// full-size fleet runs under TestBigfleetFullSize, env-guarded).
	if sc.InitialThreads > 500 {
		sc.InitialThreads = 500
	}
	sc.GridPoints = 24
	if err := sc.Validate(); err != nil {
		t.Fatalf("shrunken %s invalid: %v", name, err)
	}
	return sc
}

// firstDiff points at the first line where two strings diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\nvs " + bl[i]
		}
	}
	return "length mismatch"
}

func TestRunReportSanity(t *testing.T) {
	for _, name := range Builtins() {
		t.Run(name, func(t *testing.T) {
			sc := shrink(t, name)
			rep, err := Run(sc, RunOptions{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			u := rep.Utility
			if !(u.Ratio > 0 && u.Ratio <= 1+1e-9) {
				t.Errorf("utility/bound ratio %v outside (0, 1]", u.Ratio)
			}
			if u.BoundIntegral < u.Integral {
				t.Errorf("bound integral %v below achieved %v", u.BoundIntegral, u.Integral)
			}
			if rep.Solves.Resolves == 0 {
				t.Error("no re-solves recorded")
			}
			if rep.Solves.VirtualP99 < rep.Solves.VirtualP50 {
				t.Errorf("p99 %v < p50 %v", rep.Solves.VirtualP99, rep.Solves.VirtualP50)
			}
			if rep.Solves.VirtualMax < rep.Solves.VirtualP99 {
				t.Errorf("max %v < p99 %v", rep.Solves.VirtualMax, rep.Solves.VirtualP99)
			}
			if got, want := len(rep.Trajectory), sc.GridPoints+1; got != want {
				t.Errorf("trajectory has %d samples, want %d", got, want)
			}
			for i, s := range rep.Trajectory {
				if s.Bound+1e-9 < s.Utility {
					t.Errorf("sample %d: bound %v < utility %v", i, s.Bound, s.Utility)
				}
				if s.UpServers < 0 || s.UpServers > sc.Servers {
					t.Errorf("sample %d: upServers %d out of range", i, s.UpServers)
				}
				if i > 0 && s.T <= rep.Trajectory[i-1].T {
					t.Errorf("sample %d: time not increasing", i)
				}
			}
			if rep.Wall == nil || rep.Wall.TotalSec <= 0 {
				t.Errorf("wall stats missing: %+v", rep.Wall)
			}
			if rep.Canonical().Wall != nil {
				t.Error("Canonical kept wall stats")
			}
			if !strings.Contains(rep.Summary(), "scenario="+name) {
				t.Errorf("summary %q missing scenario name", rep.Summary())
			}
		})
	}
}

func TestRunPolicies(t *testing.T) {
	// Each policy string must run end to end on the same shrunken trace.
	for _, policy := range []string{"full-resolve", "incremental", "hybrid"} {
		t.Run(policy, func(t *testing.T) {
			sc := shrink(t, "flash")
			sc.Policy = policy
			rep, err := Run(sc, RunOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scenario.Policy != policy {
				t.Errorf("report policy %q", rep.Scenario.Policy)
			}
			if rep.Utility.Ratio <= 0 {
				t.Errorf("ratio %v", rep.Utility.Ratio)
			}
		})
	}
}

func TestRunSeedChangesReport(t *testing.T) {
	sc := shrink(t, "diurnal")
	var a, b bytes.Buffer
	r1, err := Run(sc, RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc, RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Canonical().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r2.Canonical().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestWriteCSVShape(t *testing.T) {
	sc := shrink(t, "failures")
	rep, err := Run(sc, RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "t,threads,up_servers,queue_depth,resolves,utility,bound" {
		t.Fatalf("bad header %q", lines[0])
	}
	if got, want := len(lines)-1, len(rep.Trajectory); got != want {
		t.Fatalf("%d data rows, want %d", got, want)
	}
	for i, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 6 {
			t.Fatalf("row %d has %d commas: %q", i, got, line)
		}
	}
}

func TestRunHTTPRequiresFullResolve(t *testing.T) {
	sc := shrink(t, "diurnal")
	sc.Policy = "incremental"
	if _, err := Run(sc, RunOptions{Seed: 1, Addr: "localhost:0"}); err == nil {
		t.Fatal("incremental policy against -addr accepted")
	}
}

// TestRunCountsIntoTelemetry: with telemetry on, a run adds one to
// aa_replay_runs_total and its report's event and re-solve counts to
// aa_replay_events_total and aa_replay_resolves_total, each labelled by
// scenario.
func TestRunCountsIntoTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	sc := shrink(t, "flash")
	counter := func(name string) *telemetry.Counter {
		return telemetry.Default.Counter(telemetry.Label(name, "scenario", sc.Name))
	}
	runs, events, resolves := counter("aa_replay_runs_total"), counter("aa_replay_events_total"), counter("aa_replay_resolves_total")
	runs0, events0, resolves0 := runs.Value(), events.Value(), resolves.Value()
	rep, err := Run(sc, RunOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - runs0; got != 1 {
		t.Errorf("aa_replay_runs_total moved by %d, want 1", got)
	}
	if got := events.Value() - events0; got != uint64(rep.Trace.Events) {
		t.Errorf("aa_replay_events_total moved by %d, report has %d events", got, rep.Trace.Events)
	}
	if got := resolves.Value() - resolves0; got != uint64(rep.Solves.Resolves) || got == 0 {
		t.Errorf("aa_replay_resolves_total moved by %d, report has %d re-solves", got, rep.Solves.Resolves)
	}
}
