package telemetry

import "testing"

// BenchmarkEnabledCheck is the cost every instrumented region pays when
// telemetry is off: one atomic load and a branch.
func BenchmarkEnabledCheck(b *testing.B) {
	Disable()
	var n int
	for i := 0; i < b.N; i++ {
		if Enabled() {
			n++
		}
	}
	if n != 0 {
		b.Fatal("telemetry unexpectedly enabled")
	}
}

// BenchmarkCounterAdd is the enabled-path cost of a counter update.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("miscount")
	}
}

// BenchmarkHistogramObserve is the enabled-path cost of one latency
// observation against the default bucket layout.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

// BenchmarkGuardedObserve is the full hot-path pattern the solver uses:
// one untraced stage, started and ended — compared against
// BenchmarkEnabledCheck it shows what flipping the switch costs.
func BenchmarkGuardedObserve(b *testing.B) {
	Enable()
	defer Disable()
	stage := NewStage("bench.stage", NewHistogram(LatencyBuckets))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := stage.StartIn(SpanContext{})
		sp.Int("n", i)
		sp.End()
	}
}
