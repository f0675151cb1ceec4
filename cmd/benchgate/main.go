// Command benchgate turns `go test -bench` text output into a stable
// JSON snapshot and gates one snapshot against another — the benchmark
// half of the repository's CI quality bar (scripts/bench_regress.sh).
//
// Modes:
//
//	benchgate -emit -rev <rev> < bench.txt > BENCH_<rev>.json
//	    Parse benchmark text from stdin into a JSON snapshot: ns/op and
//	    allocs/op per benchmark, keyed by the benchmark name with the
//	    trailing -<GOMAXPROCS> suffix stripped.
//
//	benchgate -compare -baseline bench/baseline.json -current BENCH_<rev>.json
//	    Fail (exit 1) if any benchmark present in both snapshots got more
//	    than -max-ratio times slower than the baseline (after machine
//	    calibration, see below), or allocates more per op than the
//	    baseline (strict: allocation counts are deterministic, so any
//	    increase is a real regression).
//
//	benchgate -speedups -current BENCH_<rev>.json
//	    Assert the fast-path speedup floor inside one snapshot: the
//	    retained reference implementations must be ≥ 5× slower than the
//	    fast Assign1, ≥ 2× slower than the fast SuperOptimal and ≥ 3×
//	    slower than the fast Assign2 at n = 10000, and the steady-state session solve (plus the n = 10⁶
//	    tier, when present) must allocate nothing. This is how CI proves
//	    the fast paths stay fast-by-construction rather than
//	    fast-on-the-author's-machine.
//
// Calibration: snapshots include BenchmarkCalibrate, a fixed CPU-bound
// loop. -compare scales every baseline ns/op by the ratio of the current
// calibration time to the baseline's, so a slower (or faster) CI runner
// moves the whole gate instead of tripping it. Allocation gates need no
// calibration.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's measured cost.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is the JSON document benchgate emits and compares.
type Snapshot struct {
	Rev string `json:"rev"`
	// Procs is the GOMAXPROCS the benchmarks ran under (the suffix go
	// test appends to every name), recorded so core-count-conditional
	// gates — the n=10⁶ parallel-speedup floor — know whether this
	// machine could exhibit the speedup at all. 0 in snapshots predating
	// the field.
	Procs      int              `json:"procs,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// calibrateKey is the machine-speed probe every snapshot should carry.
const calibrateKey = "BenchmarkCalibrate"

func main() {
	var (
		emit     = flag.Bool("emit", false, "parse `go test -bench` text on stdin into JSON on stdout")
		compare  = flag.Bool("compare", false, "gate -current against -baseline")
		speedups = flag.Bool("speedups", false, "assert the fast-path speedup floor inside -current")
		rev      = flag.String("rev", "unknown", "revision label stored in the emitted snapshot")
		baseline = flag.String("baseline", "", "baseline snapshot path (for -compare)")
		current  = flag.String("current", "", "current snapshot path (for -compare / -speedups)")
		maxRatio = flag.Float64("max-ratio", 1.20, "ns/op regression threshold after calibration")
	)
	flag.Parse()

	switch {
	case *emit:
		snap, err := parseBenchText(os.Stdin, *rev)
		if err != nil {
			fatal(err)
		}
		if len(snap.Benchmarks) == 0 {
			fatal(fmt.Errorf("no benchmark lines found on stdin"))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fatal(err)
		}
	case *compare:
		base, err := loadSnapshot(*baseline)
		if err != nil {
			fatal(err)
		}
		cur, err := loadSnapshot(*current)
		if err != nil {
			fatal(err)
		}
		if errs := gate(base, cur, *maxRatio); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "REGRESSION:", e)
			}
			os.Exit(1)
		}
		fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline %s\n",
			len(shared(base, cur)), (*maxRatio-1)*100, base.Rev)
	case *speedups:
		cur, err := loadSnapshot(*current)
		if err != nil {
			fatal(err)
		}
		if errs := assertSpeedups(cur); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "SPEEDUP FLOOR:", e)
			}
			os.Exit(1)
		}
		fmt.Println("benchgate: fast-path speedup floor holds")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// parseBenchText reads `go test -bench` output and collects ns/op and
// allocs/op per benchmark. Lines that are not benchmark results (headers,
// PASS/ok, -v noise) are skipped. Repeated runs of one name keep the last
// measurement.
func parseBenchText(r *os.File, rev string) (*Snapshot, error) {
	snap := &Snapshot{Rev: rev, Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, procs := splitProcs(fields[0])
		if procs > snap.Procs {
			snap.Procs = procs
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		b, ok := snap.Benchmarks[name], false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, ok = v, true
			case "allocs/op":
				b.AllocsPerOp, ok = v, true
			}
		}
		if ok {
			snap.Benchmarks[name] = b
		}
	}
	return snap, sc.Err()
}

// splitProcs strips the -<GOMAXPROCS> suffix go test appends to
// benchmark names (so snapshots from machines with different core
// counts share keys) and returns the core count it named, 0 if none.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0
	}
	return name[:i], procs
}

func loadSnapshot(path string) (*Snapshot, error) {
	if path == "" {
		return nil, fmt.Errorf("snapshot path not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// shared returns the benchmark names present in both snapshots, sorted,
// excluding the calibration probe.
func shared(base, cur *Snapshot) []string {
	var names []string
	for name := range base.Benchmarks {
		if name == calibrateKey {
			continue
		}
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// gate compares cur against base: calibrated ns/op ratio at most
// maxRatio, allocs/op at most the baseline's.
func gate(base, cur *Snapshot, maxRatio float64) []string {
	scale := 1.0
	bc, bok := base.Benchmarks[calibrateKey]
	cc, cok := cur.Benchmarks[calibrateKey]
	if bok && cok && bc.NsPerOp > 0 {
		scale = cc.NsPerOp / bc.NsPerOp
	}
	var errs []string
	for _, name := range shared(base, cur) {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		if b.NsPerOp > 0 {
			limit := b.NsPerOp * scale * maxRatio
			if c.NsPerOp > limit {
				errs = append(errs, fmt.Sprintf(
					"%s: %.0f ns/op exceeds calibrated limit %.0f (baseline %.0f × machine %.2f × gate %.2f)",
					name, c.NsPerOp, limit, b.NsPerOp, scale, maxRatio))
			}
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			errs = append(errs, fmt.Sprintf("%s: %g allocs/op, baseline had %g",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return errs
}

// speedupFloor names one reference/fast benchmark pair and the minimum
// ns/op ratio between them.
type speedupFloor struct {
	ref, fast string
	min       float64
}

// overheadCeiling names a wrapped/base benchmark pair solving the same
// workload and the maximum ns/op ratio the wrapper may add.
type overheadCeiling struct {
	wrapped, base string
	max           float64
}

// assertSpeedups enforces the PR's headline numbers inside one snapshot.
func assertSpeedups(cur *Snapshot) []string {
	floors := []speedupFloor{
		{"BenchmarkAssign1Ref/fig1a-uniform/n=10000", "BenchmarkAssign1/fig1a-uniform/n=10000", 5},
		{"BenchmarkSuperOptimalRef/fig1a-uniform/n=10000", "BenchmarkSuperOptimal/fig1a-uniform/n=10000", 2},
		// Algorithm 2's priced-out fast path: on the power-law workload
		// the super-optimal price zeroes out most threads, which the
		// paper's plain ordering still sorts and serves.
		{"BenchmarkAssign2Ref/fig2a-powerlaw2.0/n=10000", "BenchmarkAssign2/fig2a-powerlaw2.0/n=10000", 3},
		// Solve cache (PR 8), n=10⁴ / k=8 churn. The core pair pins the
		// ISSUE's headline: the warm repair ≥ 2× over a cold Assign2
		// pipeline on the same churned instance. The engine pairs pin the
		// end-to-end cache rungs, which carry the fixed canonicalization +
		// fingerprint cost on top of the solver work: exact hits must
		// still halve request latency, and a warm start must beat the
		// cold pipeline even after paying for its own lookup.
		{"BenchmarkAssign2WarmColdRef/n=10000", "BenchmarkAssign2Warm/n=10000", 2},
		{"BenchmarkCacheColdSolve/n=10000", "BenchmarkCacheExactHit/n=10000", 2},
		{"BenchmarkCacheColdSolve/n=10000", "BenchmarkCacheWarmStart/n=10000", 1.25},
	}
	var errs []string
	for _, f := range floors {
		ref, rok := cur.Benchmarks[f.ref]
		fast, fok := cur.Benchmarks[f.fast]
		switch {
		case !rok || !fok:
			errs = append(errs, fmt.Sprintf("missing %s or %s", f.ref, f.fast))
		case fast.NsPerOp <= 0 || ref.NsPerOp/fast.NsPerOp < f.min:
			errs = append(errs, fmt.Sprintf("%s is only %.2fx slower than %s, floor is %gx",
				f.ref, ref.NsPerOp/fast.NsPerOp, f.fast, f.min))
		}
	}
	// The engine pipeline (registry dispatch + middleware chain) runs the
	// same 8x400-thread workload as the raw session solve; riding it must
	// cost under 5% — both benchmarks live in the same snapshot, so this
	// needs no machine calibration.
	ceilings := []overheadCeiling{
		{"BenchmarkEngineSolve", "BenchmarkSolveSession", 1.05},
	}
	for _, c := range ceilings {
		wrapped, wok := cur.Benchmarks[c.wrapped]
		base, bok := cur.Benchmarks[c.base]
		switch {
		case !wok || !bok:
			errs = append(errs, fmt.Sprintf("missing %s or %s", c.wrapped, c.base))
		case base.NsPerOp <= 0 || wrapped.NsPerOp/base.NsPerOp > c.max:
			errs = append(errs, fmt.Sprintf("%s is %.3fx of %s, ceiling is %gx",
				c.wrapped, wrapped.NsPerOp/base.NsPerOp, c.base, c.max))
		}
	}
	zeroAlloc := []string{
		"BenchmarkSolveSession",
		"BenchmarkEngineSolve",
		"BenchmarkAssign1/fig1a-uniform/n=10000",
		"BenchmarkSolve/fig1a-uniform/n=10000",
		"BenchmarkAssign2Warm/n=10000",
	}
	// The million-thread tier rides along when the snapshot carries it
	// (the AA_BENCH_1M lane of bench_regress.sh): both of its benchmarks
	// then join the zero-alloc list, so a snapshot with only one of them
	// fails as missing the other.
	million := []string{"BenchmarkAssign2Serial1M", "BenchmarkSolve1M"}
	for _, name := range million {
		if _, ok := cur.Benchmarks[name]; ok {
			zeroAlloc = append(zeroAlloc, million...)
			break
		}
	}
	for _, name := range zeroAlloc {
		b, ok := cur.Benchmarks[name]
		if !ok {
			errs = append(errs, "missing "+name)
		} else if b.AllocsPerOp != 0 {
			errs = append(errs, fmt.Sprintf("%s: %g allocs/op, want 0", name, b.AllocsPerOp))
		}
	}
	return errs
}
