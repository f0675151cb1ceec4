package telemetry

import (
	"context"
	"time"
)

// Stage is one timed layer of a request: a span name for the trace and,
// where the layer has one, the latency histogram it feeds. Declare a
// stage once per layer and Start it per call; every timed layer in the
// tree (the HTTP edge, the relay hop, the engine middleware, the solver
// stages) goes through this one start/end pair, so its histogram and
// its span always cover the same interval.
type Stage struct {
	name string     // span name; "" records the histogram only
	hist *Histogram // nil emits the span only
}

// NewStage declares a stage named name that observes hist (nil for a
// layer with no latency histogram).
func NewStage(name string, hist *Histogram) Stage {
	return Stage{name: name, hist: hist}
}

// Start opens the stage as a child of the span ctx carries (falling
// back to the process parent, then to a fresh root) and, when tracing,
// returns ctx re-wrapped to carry the new span so nested stages build
// the tree. With telemetry off it returns ctx unchanged and the inert
// zero Span after one atomic load.
func (s Stage) Start(ctx context.Context) (context.Context, Span) {
	if !enabled.Load() {
		return ctx, Span{}
	}
	sp := s.open(SpanFromContext(ctx))
	if sp.sc.Valid() {
		ctx = ContextWithSpan(ctx, sp.sc)
	}
	return ctx, sp
}

// StartIn opens the stage under an explicit parent span context; the
// zero SpanContext parents to the process default.
func (s Stage) StartIn(parent SpanContext) Span {
	if !enabled.Load() {
		return Span{}
	}
	return s.open(parent)
}

// open times the stage when it has a histogram to feed or a span to
// emit; a span-only stage with tracing off stays inert and untimed.
func (s Stage) open(parent SpanContext) Span {
	traced := s.name != "" && sink.Load() != nil
	if !traced && s.hist == nil {
		return Span{}
	}
	sp := Span{name: s.name, hist: s.hist, start: time.Now()}
	if traced {
		sp.sc, sp.parent = childOf(parent)
	}
	return sp
}

// Span is one in-flight stage. The zero Span (telemetry off) is inert:
// the attribute setters and End do nothing and Context is the zero
// context. A span that is timed but not traced (no trace writer) keeps
// no attributes, so setting them allocates nothing.
type Span struct {
	name   string
	hist   *Histogram
	start  time.Time
	attrs  map[string]any // built on the first setter call while traced
	sc     SpanContext
	parent SpanID
}

// Context returns the span's identity — what a caller propagates to
// children, injects into a traceparent header, or logs for
// correlation. It is valid only while tracing.
func (s *Span) Context() SpanContext { return s.sc }

// The setters attach attributes to a traced span. The value is boxed
// only inside the traced branch, so an untraced call allocates nothing.

// Str sets a string attribute.
func (s *Span) Str(key, v string) {
	if s.sc.Valid() {
		s.set(key, v)
	}
}

// Int sets an integer attribute.
func (s *Span) Int(key string, v int) {
	if s.sc.Valid() {
		s.set(key, v)
	}
}

// Uint64 sets an unsigned integer attribute (seeds, IDs).
func (s *Span) Uint64(key string, v uint64) {
	if s.sc.Valid() {
		s.set(key, v)
	}
}

// Float sets a float attribute.
func (s *Span) Float(key string, v float64) {
	if s.sc.Valid() {
		s.set(key, v)
	}
}

// Bool sets a boolean attribute.
func (s *Span) Bool(key string, v bool) {
	if s.sc.Valid() {
		s.set(key, v)
	}
}

func (s *Span) set(key string, v any) {
	if s.attrs == nil {
		s.attrs = make(map[string]any, 8)
	}
	s.attrs[key] = v
}

// End observes the stage's latency histogram and, when traced, appends
// the span's JSONL record with every attribute set so far.
func (s *Span) End() {
	if s.start.IsZero() {
		return
	}
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Observe(d.Seconds())
	}
	if !s.sc.Valid() {
		return
	}
	var parent string
	if !s.parent.IsZero() {
		parent = s.parent.String()
	}
	emit(record{
		Type:   "span",
		Name:   s.name,
		Trace:  s.sc.TraceID.String(),
		Span:   s.sc.SpanID.String(),
		Parent: parent,
		TS:     s.start.UnixMicro(),
		Dur:    float64(d.Nanoseconds()) / 1e3,
		Attrs:  s.attrs,
	})
}
