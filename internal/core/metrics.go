package core

import "aa/internal/telemetry"

// Solver-stage telemetry (aa_core_*), registered once at init in the
// process-wide telemetry registry. Each timed stage is a
// telemetry.Stage: one start/end pair feeds its latency histogram and,
// when tracing, its span, parented to the request span the engine
// planted in the workspace (SetSpanContext) or, at package-level entry
// points, to the process default. With telemetry off a stage costs one
// atomic load.
//
// Naming scheme: aa_core_<stage>_total for call counters,
// aa_core_<stage>_seconds for stage-latency histograms (see DESIGN.md
// §7).
var (
	metricSuperOptCalls = telemetry.Default.Counter("aa_core_superopt_total")
	// metricBisectIters counts the λ-search probes of the super-optimal
	// bound (Definition V.1): the observable behind the paper's
	// O(n (log mC)²) complexity claim. The name predates the secant
	// steps; readers (perfbench, aabench, the smokes) keep it.
	metricBisectIters    = telemetry.Default.Counter("aa_core_bisection_iterations_total")
	metricLinearizeCalls = telemetry.Default.Counter("aa_core_linearize_total")
	metricAssign2Calls   = telemetry.Default.Counter("aa_core_assign2_total")

	superOptSeconds = telemetry.Default.Histogram("aa_core_superopt_seconds", telemetry.LatencyBuckets)
	assign2Seconds  = telemetry.Default.Histogram("aa_core_assign2_seconds", telemetry.LatencyBuckets)

	stageSuperOpt     = telemetry.NewStage("core.superopt", superOptSeconds)
	stageSuperOptWarm = telemetry.NewStage("core.superopt.warm", superOptSeconds)
	stageAssign1      = telemetry.NewStage("core.assign1",
		telemetry.Default.Histogram("aa_core_assign1_seconds", telemetry.LatencyBuckets))
	stageAssign2     = telemetry.NewStage("core.assign2", assign2Seconds)
	stageAssign2Warm = telemetry.NewStage("core.assign2.warm", assign2Seconds)
	stageLocalSearch = telemetry.NewStage("core.localsearch",
		telemetry.Default.Histogram("aa_core_localsearch_seconds", telemetry.LatencyBuckets))
)
