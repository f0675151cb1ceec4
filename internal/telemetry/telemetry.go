// Package telemetry is the repository's zero-dependency instrumentation
// layer: a process-wide registry of counters, gauges and fixed-bucket
// histograms, plus a lightweight span/trace-event API that appends JSONL
// records to a writer.
//
// Design points, in the order they matter:
//
//   - Near-zero cost when disabled. The package starts disabled; a
//     timed layer is a Stage, whose Start returns an inert Span after
//     one atomic load of Enabled(), so a binary that never opts in pays
//     one predictable branch per instrumented region (see
//     BenchmarkEnabledCheck and the root BenchmarkTelemetryOverhead for
//     the proof).
//
//   - Allocation-free on the hot path. Counter.Add, Gauge.Set and
//     Histogram.Observe are plain atomic operations on pre-allocated
//     state; no locks, no maps, no interface boxing. Metric lookup
//     (Registry.Counter etc.) takes a mutex and belongs in package init
//     or setup code, not inner loops.
//
//   - Safe under -race. Every mutable word is a sync/atomic value; the
//     registry map is mutex-guarded; the trace sink serializes writes.
//
//   - One export format. Registry.WritePrometheus emits the Prometheus
//     text exposition format; Handler serves it over HTTP next to
//     net/http/pprof, plus the bounded snapshot ring behind
//     /metrics/history (see Registry.StartHistory).
//
//   - One stage per timed layer. A Stage pairs a span name with the
//     layer's latency histogram (if it has one); Start/End feed both
//     over the same interval.
//
//   - Request-scoped tracing. Spans carry trace/span/parent identity,
//     nest through context.Context (Stage.Start/SpanFromContext), link
//     under a process-wide default parent when no context is at hand
//     (SetProcessParent), and cross process boundaries as W3C
//     traceparent headers (SpanContext.Traceparent/ParseTraceparent).
//     The JSONL sink is detachable (DetachTraceWriter) so a shutdown
//     flush can never truncate the final record. StartProfiler adds a
//     continuous CPU+heap pprof capture ring on disk.
//
// Metric naming follows the Prometheus convention with the subsystem as
// prefix: aa_core_* for solver-stage metrics, aa_pool_* for the batch
// engine, aa_experiment_* for the evaluation harness. Per-figure and
// per-point tags are encoded as labels via Label.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// enabled is the process-wide switch. All recording helpers in other
// packages are expected to guard with Enabled(); the metric types
// themselves record unconditionally so that counters a package must
// keep regardless (e.g. the check layer's aa_check_* totals) always
// count.
var enabled atomic.Bool

// Enable turns instrumentation on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether instrumentation is on. It is a single atomic
// load — cheap enough to call on every solve.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (queue depths, live totals).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat64 accumulates a float64 with a CAS loop (no mutex, no
// allocation).
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat64) Value() float64 {
	return math.Float64frombits(f.bits.Load())
}

// Histogram is a fixed-bucket histogram in the Prometheus style: bucket
// i counts observations v <= Bounds[i] (cumulative in the exposition,
// per-bucket internally), with one extra overflow bucket for +Inf.
// Observe is lock-free: a binary search over the bounds plus three
// atomic operations.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomicFloat64
}

// NewHistogram builds a histogram with the given strictly increasing
// upper bounds. Most callers should go through Registry.Histogram, which
// also registers it for export.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is exactly the Prometheus le (inclusive) bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that contains it, the standard Prometheus
// histogram_quantile estimate. Observations beyond the last bound clamp
// to it. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: no finite upper bound to interpolate
				// toward; clamp to the last bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets are the default bounds for latency histograms, in
// seconds: exponential from 1µs to 10s, dense enough for p50/p99
// estimates across the solve sizes this repository handles.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}
