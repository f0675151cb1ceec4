package aa

// Benchmark harness: one benchmark per figure/claim in the paper's
// evaluation (§VII). Each figure benchmark runs its sweep at a reduced
// trial count per iteration and reports the headline ratios as benchmark
// metrics, so `go test -bench=.` regenerates the paper's series shapes;
// cmd/aabench runs the same specs at the paper's full 1000 trials.
//
//	fig1a/1b: uniform / normal(1,1), ratio vs β = n/m ∈ [1, 15]
//	fig2a/2b: power law, ratio vs β (α=2) and vs α (β=5)
//	fig3a/3b/3c: two-point discrete, ratio vs β, γ, θ
//	runtime: Algorithm 2 end-to-end at the paper's n=100, m=8, C=1000
//	intro: the §I fixed-request gap series
//	ablations: Algorithm 1 vs 2; allocation-only vs joint optimization

import (
	"context"
	"io"
	"testing"

	"aa/internal/cachesim"
	"aa/internal/cloud"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/experiment"
	"aa/internal/gen"
	"aa/internal/hosting"
	"aa/internal/rng"
	"aa/internal/telemetry"
)

const benchTrials = 30

// runFigure executes a figure spec once per benchmark iteration and
// reports the mean A2/SO ratio plus the final sweep point's heuristic
// ratios as metrics.
func runFigure(b *testing.B, spec experiment.Spec) {
	b.Helper()
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(spec, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last == nil {
		return
	}
	// Mean A2/SO across the sweep; heuristic ratios at the last point.
	soSum := 0.0
	for _, pt := range last.Points {
		soSum += pt.Ratios["SO"].Mean
	}
	final := last.Points[len(last.Points)-1]
	b.ReportMetric(soSum/float64(len(last.Points)), "A2/SO-mean")
	b.ReportMetric(final.Ratios["UU"].Mean, "A2/UU-last")
	b.ReportMetric(final.Ratios["UR"].Mean, "A2/UR-last")
	b.ReportMetric(final.Ratios["RU"].Mean, "A2/RU-last")
	b.ReportMetric(final.Ratios["RR"].Mean, "A2/RR-last")
}

// BenchmarkFig1aUniformBeta regenerates Figure 1(a).
func BenchmarkFig1aUniformBeta(b *testing.B) {
	runFigure(b, experiment.Fig1a(benchTrials))
}

// BenchmarkFig1bNormalBeta regenerates Figure 1(b).
func BenchmarkFig1bNormalBeta(b *testing.B) {
	runFigure(b, experiment.Fig1b(benchTrials))
}

// BenchmarkFig2aPowerBeta regenerates Figure 2(a).
func BenchmarkFig2aPowerBeta(b *testing.B) {
	runFigure(b, experiment.Fig2a(benchTrials))
}

// BenchmarkFig2bPowerAlpha regenerates Figure 2(b).
func BenchmarkFig2bPowerAlpha(b *testing.B) {
	runFigure(b, experiment.Fig2b(benchTrials))
}

// BenchmarkFig3aDiscreteBeta regenerates Figure 3(a).
func BenchmarkFig3aDiscreteBeta(b *testing.B) {
	runFigure(b, experiment.Fig3a(benchTrials))
}

// BenchmarkFig3bDiscreteGamma regenerates Figure 3(b).
func BenchmarkFig3bDiscreteGamma(b *testing.B) {
	runFigure(b, experiment.Fig3b(benchTrials))
}

// BenchmarkFig3cDiscreteTheta regenerates Figure 3(c).
func BenchmarkFig3cDiscreteTheta(b *testing.B) {
	runFigure(b, experiment.Fig3c(benchTrials))
}

// BenchmarkAlgorithm2_N100 is the paper's in-text runtime claim: an
// unoptimized Matlab implementation solved n=100, m=8, C=1000 in 0.02 s.
// This measures the full pipeline (super-optimal allocation,
// linearization, assignment) on the same shape.
func BenchmarkAlgorithm2_N100(b *testing.B) {
	r := rng.New(1)
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Assign2(in)
	}
}

// BenchmarkAlgorithm1_N100 is the same pipeline through Algorithm 1
// (O(mn²) assignment phase) for comparison.
func BenchmarkAlgorithm1_N100(b *testing.B) {
	r := rng.New(1)
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Assign1(in)
	}
}

// BenchmarkAlgorithm2Scaling sweeps n to expose the near-linear scaling
// of Algorithm 2 (the log² factors come from the allocation step).
func BenchmarkAlgorithm2Scaling(b *testing.B) {
	for _, n := range []int{100, 400, 1600, 6400} {
		b.Run(benchName("n", n), func(b *testing.B) {
			r := rng.New(1)
			in, err := gen.Instance(gen.DefaultUniform, 8, 1000, n, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Assign2(in)
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkIntroFixedRequest reproduces the introduction's fixed-request
// series (t-intro in DESIGN.md): optimal/fixed utility ratio for
// f(x)=x^0.5, z=100, C=1000, growing with n as n^(1-β).
func BenchmarkIntroFixedRequest(b *testing.B) {
	ns := []int{10, 20, 40, 80, 160, 320}
	var pts []cloud.IntroGapPoint
	for i := 0; i < b.N; i++ {
		pts = cloud.IntroGapSeries(1000, 100, 0.5, ns)
	}
	if len(pts) > 0 {
		b.ReportMetric(pts[len(pts)-1].Ratio, "opt/fixed@n320")
	}
}

// BenchmarkAblationAssignmentVsAllocation quantifies DESIGN.md's
// ablation: how much of AA's win comes from joint assignment versus
// fixing the round-robin assignment and only optimizing allocation.
func BenchmarkAblationAssignmentVsAllocation(b *testing.B) {
	r := rng.New(5)
	in, err := gen.Instance(gen.PowerLaw{Alpha: 2, Xmin: 1}, 8, 1000, 80, r)
	if err != nil {
		b.Fatal(err)
	}
	var a2U, bestAllocU, uuU float64
	for i := 0; i < b.N; i++ {
		a2U = core.Assign2(in).Utility(in)
		uu := core.AssignUU(in)
		bestAllocU = core.PolishAllocations(in, uu).Utility(in)
		uuU = uu.Utility(in)
	}
	if uuU > 0 {
		b.ReportMetric(a2U/uuU, "A2/UU")
		b.ReportMetric(bestAllocU/uuU, "RR+opt-alloc/UU")
	}
}

// BenchmarkCacheEndToEnd runs the full multicore application pipeline —
// profile, solve, refine, co-run — and reports AA's measured advantage
// over equal partitioning and over an unpartitioned shared cache
// (the application claims in EXPERIMENTS.md).
func BenchmarkCacheEndToEnd(b *testing.B) {
	cfg := cachesim.Config{Sets: 32, Ways: 8, LineSize: 64}
	r := rng.New(9)
	gens := []cachesim.TraceGen{
		cachesim.WorkingSet{Lines: 120, LineSize: 64, Base: 0},
		cachesim.WorkingSet{Lines: 300, LineSize: 64, Base: 1 << 30},
		cachesim.ZipfReuse{Lines: 800, S: 1.2, LineSize: 64, Base: 2 << 30},
		cachesim.Stream{LineSize: 64, Base: 3 << 30},
		cachesim.SequentialLoop{Lines: 160, LineSize: 64, Base: 4 << 30},
		cachesim.WorkingSet{Lines: 90, LineSize: 64, Base: 5 << 30},
	}
	workloads := cachesim.GenerateWorkloads(gens, 20000, cachesim.DefaultModel, r)
	var aaTotal, uuTotal, sharedTotal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, profiles, err := cachesim.BuildInstance(cfg, 2, workloads)
		if err != nil {
			b.Fatal(err)
		}
		sol := core.Assign2(in)
		ways := cachesim.OptimizeWays(cfg, 2, workloads, profiles, sol)
		res, err := cachesim.CoRunWays(cfg, 2, workloads, sol, ways)
		if err != nil {
			b.Fatal(err)
		}
		uu := core.AssignUU(in)
		uuRes, err := cachesim.CoRun(cfg, 2, workloads, uu)
		if err != nil {
			b.Fatal(err)
		}
		sharedRes, err := cachesim.SharedCoRun(cfg, 2, workloads, uu.Server)
		if err != nil {
			b.Fatal(err)
		}
		aaTotal, uuTotal, sharedTotal = res.Total, uuRes.Total, sharedRes.Total
	}
	if uuTotal > 0 {
		b.ReportMetric(aaTotal/uuTotal, "AA/equal")
	}
	if sharedTotal > 0 {
		b.ReportMetric(aaTotal/sharedTotal, "AA/shared")
	}
}

// BenchmarkHostingEndToEnd measures the hosting pipeline: model solve +
// 60 s of Poisson queueing simulation, reporting AA's revenue uplift.
func BenchmarkHostingEndToEnd(b *testing.B) {
	d := &hosting.Deployment{
		Hosts:    3,
		Capacity: 100,
		Services: []hosting.Service{
			{Name: "checkout", Demand: 800, Revenue: 0.020, Curve: hosting.LinearCurve{PerUnit: 12}},
			{Name: "search", Demand: 400, Revenue: 0.012, Curve: hosting.SaturatingCurve{Max: 500, K: 30}},
			{Name: "reports", Demand: 5000, Revenue: 0.0002, Curve: hosting.LinearCurve{PerUnit: 40}},
			{Name: "recs", Demand: 300, Revenue: 0.008, Curve: hosting.SaturatingCurve{Max: 350, K: 25}},
			{Name: "ads", Demand: 600, Revenue: 0.010, Curve: hosting.SaturatingCurve{Max: 700, K: 45}},
			{Name: "mail", Demand: 150, Revenue: 0.006, Curve: hosting.LinearCurve{PerUnit: 4}},
		},
	}
	var aaRev, uuRev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := d.Instance()
		if err != nil {
			b.Fatal(err)
		}
		sol := core.Assign2(in)
		uu := core.AssignUU(in)
		r := rng.New(uint64(i) + 1)
		resAA, err := d.Simulate(sol, 60, 1e9, r.Split(1))
		if err != nil {
			b.Fatal(err)
		}
		resUU, err := d.Simulate(uu, 60, 1e9, r.Split(2))
		if err != nil {
			b.Fatal(err)
		}
		aaRev, uuRev = resAA.Revenue, resUU.Revenue
	}
	if uuRev > 0 {
		b.ReportMetric(aaRev/uuRev, "AA/equal-revenue")
	}
}

// BenchmarkCloudTiersSweep measures the cloud scenario across tenant
// counts: AA joint sizing versus surplus-maximizing tier selection +
// first-fit-decreasing, reporting the revenue uplift at the largest
// fleet (the cloudbroker example's claim as a tracked metric).
func BenchmarkCloudTiersSweep(b *testing.B) {
	var uplift float64
	for i := 0; i < b.N; i++ {
		r := rng.New(11)
		for _, tenants := range []int{12, 24, 48} {
			f := cloud.RandomFleet(4, 64, tenants, 0.3, 0.9, r.Split(uint64(tenants)))
			aaRev, _, err := cloud.SolveRevenue(f)
			if err != nil {
				b.Fatal(err)
			}
			tiers := cloud.DefaultTiers(f.Capacity)
			tierRev, _ := cloud.TierRevenue(f, tiers, cloud.ChooseTiers(f, tiers))
			if tierRev > 0 {
				uplift = aaRev / tierRev
			}
		}
	}
	b.ReportMetric(uplift, "AA/tiers@48")
}

// BenchmarkSuperOptimalN100 isolates the dominant O(n (log mC)²) step.
func BenchmarkSuperOptimalN100(b *testing.B) {
	r := rng.New(1)
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SuperOptimal(in)
	}
}

// BenchmarkTelemetryOverhead runs the full Algorithm 2 pipeline at the
// paper's n=100 shape with telemetry disabled and enabled. The disabled
// sub-benchmark is the guarantee tracked by DESIGN.md §7: instrumenting
// the solver must not slow down an uninstrumented process (budget <2%
// versus the pre-telemetry baseline).
func BenchmarkTelemetryOverhead(b *testing.B) {
	r := rng.New(1)
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 100, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		telemetry.Disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Assign2(in)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		telemetry.Enable()
		defer telemetry.Disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Assign2(in)
		}
	})

	// Context-propagation variants through the full engine pipeline.
	// ctx-disabled is the request-scoped analogue of the disabled
	// guarantee: carrying a context through SolveInto with tracing off
	// must stay at 0 allocs/op (no span machinery touched). ctx-traced
	// prices a fully traced solve — caller span inherited, engine root +
	// dispatch + core stage spans serialized to a discarded sink.
	eng := engine.New(engine.Options{})
	req := &engine.Request{Instance: in}
	var resp engine.Response
	b.Run("ctx-disabled", func(b *testing.B) {
		telemetry.Disable()
		ctx := context.Background()
		if err := eng.SolveInto(ctx, req, &resp); err != nil { // size buffers
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.SolveInto(ctx, req, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx-traced", func(b *testing.B) {
		telemetry.Enable()
		defer telemetry.Disable()
		telemetry.SetTraceWriter(io.Discard)
		defer telemetry.SetTraceWriter(nil)
		ctx, span := telemetry.StartSpanCtx(context.Background(), "bench.caller")
		defer span.End()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.SolveInto(ctx, req, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
