package experiment

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

// shrink reduces a spec for fast unit testing: few trials, short sweep.
func shrink(s Spec, trials, points int) Spec {
	s.Trials = trials
	if len(s.Sweep) > points {
		// Keep the first and last points to cover both sweep extremes.
		kept := []SweepPoint{s.Sweep[0]}
		if points > 1 {
			kept = append(kept, s.Sweep[len(s.Sweep)-1])
		}
		s.Sweep = kept
	}
	return s
}

func TestRunValidation(t *testing.T) {
	spec := Fig1a(0)
	if _, err := Run(spec, 1, 1); err == nil {
		t.Error("zero trials accepted")
	}
	spec = Fig1a(5)
	spec.Sweep = nil
	if _, err := Run(spec, 1, 1); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	spec := shrink(Fig1a(8), 8, 2)
	seq, err := Run(spec, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(spec, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range seq.Points {
		for _, c := range Competitors {
			a := seq.Points[pi].Ratios[c]
			b := par.Points[pi].Ratios[c]
			if a.Mean != b.Mean || a.Stddev != b.Stddev {
				t.Errorf("point %d competitor %s: sequential %+v != parallel %+v", pi, c, a, b)
			}
		}
	}
}

// The batch engine's determinism guarantee: the rendered experiment
// output — every digit of every table — is identical whether the trials
// run on one worker or eight.
func TestRunOutputIdenticalSerialVsParallel(t *testing.T) {
	spec := shrink(Fig3a(12), 12, 2)
	serial, err := Run(spec, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, 99, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Render(parallel).String(), Render(serial).String(); got != want {
		t.Errorf("workers=8 table differs from workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if got, want := RenderRoM(parallel).String(), RenderRoM(serial).String(); got != want {
		t.Errorf("workers=8 RoM table differs from workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, shrink(Fig1a(8), 8, 2), 1, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextDeadlinePrompt(t *testing.T) {
	// A spec far too big to finish in a millisecond: the deadline must
	// surface promptly rather than after the full sweep.
	spec := Fig1a(2000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, spec, 1, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("RunContext took %v to notice the deadline", elapsed)
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	// Use the β=15 point: at β=1 both A2 and UU are optimal, so the ratio
	// is exactly 1 for every seed.
	spec := shrink(Fig2a(6), 6, 2)
	a, err := Run(spec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Points[1].Ratios["UU"].Mean == b.Points[1].Ratios["UU"].Mean {
		t.Error("different seeds produced identical means (suspicious)")
	}
}

// The headline claims of §VII at reduced trial counts: Algorithm 2 is
// within a few percent of the super-optimal bound and never behind the
// heuristics.
func TestShapeAlgorithm2NearSuperOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	for _, spec := range []Spec{
		shrink(Fig1a(30), 30, 2),
		shrink(Fig1b(30), 30, 2),
		shrink(Fig2a(30), 30, 2),
	} {
		res, err := Run(spec, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range res.Points {
			so := pt.Ratios["SO"].Mean
			if so < 0.97 || so > 1.0+1e-9 {
				t.Errorf("%s %s=%g: A2/SO = %v, want in [0.97, 1]",
					spec.ID, spec.ParamName, pt.Param, so)
			}
			for _, c := range []string{"UU", "UR", "RU", "RR"} {
				if r := pt.Ratios[c].Mean; r < 0.999 {
					t.Errorf("%s %s=%g: A2/%s = %v, expected >= 1",
						spec.ID, spec.ParamName, pt.Param, c, r)
				}
			}
		}
	}
}

// At β = 1, UU is optimal (§VII-A): the A2/UU ratio must be ~1, and the
// heuristic gap must widen with β.
func TestShapeUUOptimalAtBetaOneAndGapGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	spec := Fig2a(40)
	spec.Sweep = []SweepPoint{spec.Sweep[0], spec.Sweep[14]} // β = 1 and 15
	res, err := Run(spec, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	atBeta1 := res.Points[0].Ratios["UU"].Mean
	if atBeta1 > 1.02 {
		t.Errorf("A2/UU at beta=1 is %v, want ~1 (UU optimal)", atBeta1)
	}
	atBeta15 := res.Points[1].Ratios["UU"].Mean
	if atBeta15 < 1.5*atBeta1 {
		t.Errorf("heuristic gap should grow with beta: %v at 1 vs %v at 15", atBeta1, atBeta15)
	}
}

func TestRenderTable(t *testing.T) {
	spec := shrink(Fig3a(4), 4, 2)
	res, err := Run(spec, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl := Render(res)
	out := tbl.String()
	if !strings.Contains(out, "fig3a") {
		t.Errorf("missing figure id:\n%s", out)
	}
	for _, col := range []string{"A2/SO", "A2/UU", "A2/RR"} {
		if !strings.Contains(out, col) {
			t.Errorf("missing column %s:\n%s", col, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := 3 + len(res.Points); len(lines) != want {
		t.Errorf("table has %d lines, want %d:\n%s", len(lines), want, out)
	}
}

func TestAllFiguresSpecsWellFormed(t *testing.T) {
	specs := AllFigures(10)
	if len(specs) != 7 {
		t.Fatalf("got %d figure specs, want 7", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Errorf("duplicate spec id %s", s.ID)
		}
		seen[s.ID] = true
		if len(s.Sweep) == 0 {
			t.Errorf("%s: empty sweep", s.ID)
		}
		if s.M != DefaultM || s.C != DefaultC {
			t.Errorf("%s: m=%d C=%v, want paper defaults", s.ID, s.M, s.C)
		}
		for _, sp := range s.Sweep {
			if sp.N <= 0 || sp.Dist == nil {
				t.Errorf("%s: malformed sweep point %+v", s.ID, sp)
			}
		}
	}
	// Beta sweeps cover 1..15 as in the paper.
	for _, id := range []string{"fig1a", "fig1b", "fig2a", "fig3a"} {
		s, ok := ByID(id, 10)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		if len(s.Sweep) != 15 || s.Sweep[0].Param != 1 || s.Sweep[14].Param != 15 {
			t.Errorf("%s: beta sweep malformed", id)
		}
		if s.Sweep[4].N != 5*DefaultM {
			t.Errorf("%s: n at beta=5 is %d, want %d", id, s.Sweep[4].N, 5*DefaultM)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig2b", 5); !ok {
		t.Error("fig2b not found")
	}
	if _, ok := ByID("nope", 5); ok {
		t.Error("unknown id found")
	}
}

func TestSafeRatio(t *testing.T) {
	if got := safeRatio(2, 4); got != 0.5 {
		t.Errorf("safeRatio(2,4) = %v", got)
	}
	if got := safeRatio(0, 0); got != 1 {
		t.Errorf("safeRatio(0,0) = %v, want 1", got)
	}
	if got := safeRatio(1, 0); got != 0 {
		t.Errorf("safeRatio(1,0) = %v, want 0", got)
	}
}

func TestExtensionSpecLocalSearch(t *testing.T) {
	spec := ExtDiscreteLS(6)
	spec.Sweep = spec.Sweep[:1] // β=2 point only for speed
	res, err := Run(spec, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	so := pt.Ratios["SO"].Mean
	ls := pt.Ratios["LS"].Mean
	gm := pt.Ratios["GM"].Mean
	if ls < so-1e-9 {
		t.Errorf("LS/SO = %v below A2/SO = %v — local search lost utility", ls, so)
	}
	if ls > 1+1e-9 || gm > 1+1e-9 {
		t.Errorf("extension ratios exceed the bound: LS %v GM %v", ls, gm)
	}
	if gm <= 0 {
		t.Errorf("GM/SO = %v", gm)
	}
	// Render includes the extension columns.
	out := Render(res).String()
	for _, col := range []string{"LS/SO", "GM/SO"} {
		if !strings.Contains(out, col) {
			t.Errorf("missing column %s:\n%s", col, out)
		}
	}
}

func TestByIDFindsExtensions(t *testing.T) {
	if _, ok := ByID("ext-ls", 5); !ok {
		t.Error("ext-ls not found")
	}
}

func TestRunRejectsUnknownExtra(t *testing.T) {
	spec := Fig1a(3)
	spec.Sweep = spec.Sweep[:1]
	spec.Extra = []string{"bogus"}
	if _, err := Run(spec, 1, 1); err == nil {
		t.Error("unknown extra competitor accepted")
	}
}

func TestRenderChart(t *testing.T) {
	spec := shrink(Fig2a(4), 4, 2)
	res, err := Run(spec, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderChart(res).String()
	for _, want := range []string{"fig2a", "A2/SO", "A2/RR", "beta", "utility ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestRatioOfMeansComputed(t *testing.T) {
	spec := shrink(Fig1a(10), 10, 2)
	res, err := Run(spec, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		for _, c := range Competitors {
			rom := pt.RatioOfMeans[c]
			mor := pt.Ratios[c].Mean
			if rom <= 0 {
				t.Errorf("%s: ratio of means = %v", c, rom)
			}
			// On the light-tailed uniform panel the two estimators agree
			// within a few percent.
			if rom < mor*0.9 || rom > mor*1.1 {
				t.Errorf("%s at %s=%g: ratio-of-means %v far from mean-of-ratios %v",
					c, spec.ParamName, pt.Param, rom, mor)
			}
		}
		// A2/SO specifically must still be <= 1 under both estimators.
		if pt.RatioOfMeans["SO"] > 1+1e-9 {
			t.Errorf("RoM A2/SO = %v > 1", pt.RatioOfMeans["SO"])
		}
	}
}

func TestRuntimeTable(t *testing.T) {
	tbl, err := RuntimeTable(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Errorf("got %d rows, want 8", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "ext-runtime") {
		t.Error("missing title")
	}
	if _, err := RuntimeTable(1, 0); err == nil {
		t.Error("zero reps accepted")
	}
}

func TestExtClusterSizeSweep(t *testing.T) {
	spec := ExtClusterSize(6)
	spec.Sweep = []SweepPoint{spec.Sweep[0], spec.Sweep[2]} // m = 2 and 8
	res, err := Run(spec, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		so := pt.Ratios["SO"].Mean
		if so < 0.9 || so > 1+1e-9 {
			t.Errorf("m=%g: A2/SO = %v out of range", pt.Param, so)
		}
		if pt.Ratios["UU"].Mean < 1 {
			t.Errorf("m=%g: A2/UU = %v below 1", pt.Param, pt.Ratios["UU"].Mean)
		}
	}
	// n scales with m: 10 at m=2, 40 at m=8.
	if res.Points[0].N != 10 || res.Points[1].N != 40 {
		t.Errorf("n per point: %d, %d", res.Points[0].N, res.Points[1].N)
	}
}

// TestTrialSolvesThePaperPair: a trial's A1 and A2 assignments are
// bit-identical to core.Assign1/core.Assign2, its SO column is
// core.SuperOptimal's bound, and the A2 numerator and A1 denominator
// are those assignments' utilities.
func TestTrialSolvesThePaperPair(t *testing.T) {
	for _, spec := range []Spec{Fig1a(1), Fig2b(1), Fig3b(1)} {
		sp := spec.Sweep[len(spec.Sweep)/2]
		for trial := uint64(0); trial < 4; trial++ {
			num, den, err := runTrial(context.Background(), spec, sp, rng.New(9).SplitPath(0, trial))
			if err != nil {
				t.Fatal(err)
			}
			in, err := gen.Instance(sp.Dist, spec.M, spec.C, sp.N, rng.New(9).SplitPath(0, trial))
			if err != nil {
				t.Fatal(err)
			}
			a1, a2, fhat := solvePaper(in)
			want1, want2 := core.Assign1(in), core.Assign2(in)
			for i := range want2.Server {
				if a2.Server[i] != want2.Server[i] || math.Float64bits(a2.Alloc[i]) != math.Float64bits(want2.Alloc[i]) {
					t.Fatalf("%s trial %d: A2 thread %d (%d, %v), core.Assign2 (%d, %v)",
						spec.ID, trial, i, a2.Server[i], a2.Alloc[i], want2.Server[i], want2.Alloc[i])
				}
				if a1.Server[i] != want1.Server[i] || math.Float64bits(a1.Alloc[i]) != math.Float64bits(want1.Alloc[i]) {
					t.Fatalf("%s trial %d: A1 thread %d (%d, %v), core.Assign1 (%d, %v)",
						spec.ID, trial, i, a1.Server[i], a1.Alloc[i], want1.Server[i], want1.Alloc[i])
				}
			}
			if len(a1.Server) != in.N() || len(a2.Server) != in.N() {
				t.Fatalf("%s trial %d: %d/%d threads placed, want %d", spec.ID, trial, len(a1.Server), len(a2.Server), in.N())
			}
			so := core.SuperOptimal(in).Total
			if fhat != so || den["SO"] != so {
				t.Fatalf("%s trial %d: bound %v, SO column %v, want core.SuperOptimal %v", spec.ID, trial, fhat, den["SO"], so)
			}
			if num["SO"] != want2.Utility(in) || den["A1"] != want1.Utility(in) {
				t.Fatalf("%s trial %d: A2 %v / A1 %v, want %v / %v",
					spec.ID, trial, num["SO"], den["A1"], want2.Utility(in), want1.Utility(in))
			}
		}
	}
}
