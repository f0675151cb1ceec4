package main

import (
	"os"
	"strings"
	"testing"
)

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkSolve-8", "BenchmarkSolve", 8},
		{"BenchmarkSolve/fig1a-uniform/n=10000-4", "BenchmarkSolve/fig1a-uniform/n=10000", 4},
		{"BenchmarkSolve", "BenchmarkSolve", 0},
		{"BenchmarkAssign2Warm/n=10000", "BenchmarkAssign2Warm/n=10000", 0},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

// errsAbout1M filters assertSpeedups output down to the lines that
// mention the million-thread tier.
func errsAbout1M(errs []string) []string {
	var out []string
	for _, e := range errs {
		if strings.Contains(e, "1M") {
			out = append(out, e)
		}
	}
	return out
}

// TestMillionFloorConditional: the n=10⁶ zero-alloc floor arms only
// when the snapshot carries the tier; then both of its benchmarks must
// be present and allocate nothing per op.
func TestMillionFloorConditional(t *testing.T) {
	snap := func(tier map[string]float64) *Snapshot {
		s := &Snapshot{Procs: 2, Benchmarks: map[string]Bench{}}
		for name, allocs := range tier {
			s.Benchmarks[name] = Bench{NsPerOp: 3e8, AllocsPerOp: allocs}
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		tier    map[string]float64
		wantErr bool
	}{
		{"absent tier, no error", nil, false},
		{"both zero", map[string]float64{"BenchmarkAssign2Serial1M": 0, "BenchmarkSolve1M": 0}, false},
		{"solve allocates", map[string]float64{"BenchmarkAssign2Serial1M": 0, "BenchmarkSolve1M": 18}, true},
		{"assign2 allocates", map[string]float64{"BenchmarkAssign2Serial1M": 1, "BenchmarkSolve1M": 0}, true},
		{"half tier is malformed", map[string]float64{"BenchmarkSolve1M": 0}, true},
	} {
		got := errsAbout1M(assertSpeedups(snap(tc.tier)))
		if (len(got) > 0) != tc.wantErr {
			t.Errorf("%s: 1M errors = %v, wantErr=%v", tc.name, got, tc.wantErr)
		}
	}
}

// TestParseBenchTextProcs: the emitted snapshot records the GOMAXPROCS
// suffix even though the benchmark keys have it stripped.
func TestParseBenchTextProcs(t *testing.T) {
	tmp := t.TempDir() + "/bench.txt"
	text := "goos: linux\nBenchmarkSolve-6   \t 100\t 12345 ns/op\t 0 allocs/op\nPASS\n"
	if err := os.WriteFile(tmp, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := parseBenchText(f, "test")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Procs != 6 {
		t.Fatalf("Procs = %d, want 6", snap.Procs)
	}
	if b, ok := snap.Benchmarks["BenchmarkSolve"]; !ok || b.NsPerOp != 12345 {
		t.Fatalf("benchmarks = %+v", snap.Benchmarks)
	}
}

// TestAssign2RefFloor: the plain Algorithm 2 ordering must take at
// least 3× the priced-out fast path's time at n = 10⁴.
func TestAssign2RefFloor(t *testing.T) {
	const ref, fast = "BenchmarkAssign2Ref/fig2a-powerlaw2.0/n=10000", "BenchmarkAssign2/fig2a-powerlaw2.0/n=10000"
	for _, tc := range []struct {
		refNs   float64
		wantErr bool
	}{{200e3, false}, {90e3, false}, {80e3, true}} {
		s := &Snapshot{Benchmarks: map[string]Bench{ref: {NsPerOp: tc.refNs}, fast: {NsPerOp: 30e3}}}
		var got []string
		for _, e := range assertSpeedups(s) {
			if strings.Contains(e, "Assign2Ref") {
				got = append(got, e)
			}
		}
		if (len(got) > 0) != tc.wantErr {
			t.Errorf("ref %v ns vs fast 30000 ns: errors %v, wantErr=%v", tc.refNs, got, tc.wantErr)
		}
	}
}
