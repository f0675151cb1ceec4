package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The trace sink is process-wide, like the registry: spans and events
// append JSONL records to the writer installed with SetTraceWriter.
// Writes are serialized by a mutex; with no writer installed, a stage
// emits no span and Event is a single atomic pointer load.
//
// Span records form trees (schema v2, DESIGN.md §12): every span
// carries a trace ID, its own span ID and its parent's span ID, so a
// JSONL file — or several files from different processes joined on
// trace_id — reconstructs into one request tree. Parents propagate
// three ways, in priority order: explicitly via context.Context
// (Stage.Start) or a SpanContext (Stage.StartIn), through the
// process-wide default parent (SetProcessParent, installed by cliutil
// for every -trace-out run), or not at all, in which case the span
// roots a fresh trace.

type traceSink struct {
	mu       sync.Mutex
	w        io.Writer
	enc      *json.Encoder
	detached bool
}

var sink atomic.Pointer[traceSink]

// SetTraceWriter installs w as the JSONL trace destination (nil
// removes it). The caller owns w and closes it after removing it here;
// use DetachTraceWriter when w buffers (telemetry.Setup does) so the
// final records are flushed, never truncated.
func SetTraceWriter(w io.Writer) {
	if w == nil {
		detach()
		return
	}
	detach()
	sink.Store(&traceSink{w: w, enc: json.NewEncoder(w)})
}

// detach removes the current sink and waits out any in-flight write,
// returning the detached sink (nil when none was installed). After
// detach returns, no further bytes will be written to the old writer:
// emitters that raced the swap observe the detached flag under the
// sink mutex and drop their record instead.
func detach() *traceSink {
	s := sink.Swap(nil)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.detached = true
	s.mu.Unlock()
	return s
}

// Flusher is the single-method interface DetachTraceWriter uses to
// flush buffered trace writers (bufio.Writer satisfies it).
type Flusher interface {
	Flush() error
}

// DetachTraceWriter removes the installed trace writer, waits for any
// in-flight record to finish, and flushes the writer when it buffers
// (implements Flusher). It returns the flush error, so a failed final
// flush — a truncated trace artifact — is never silent. Safe to call
// with no writer installed.
func DetachTraceWriter() error {
	s := detach()
	if s == nil {
		return nil
	}
	if f, ok := s.w.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// TraceEnabled reports whether a trace writer is installed. Callers
// guard work that only a trace needs (a ctx lookup, a header parse)
// behind it; stages check it themselves.
func TraceEnabled() bool { return sink.Load() != nil }

// record is the JSONL schema (v2) shared by spans and events. Times
// are Unix microseconds; Dur is microseconds and present only on
// spans. Trace/Span/Parent are lowercase hex IDs; Parent is empty on
// trace roots, and all three are empty only for records emitted before
// the schema-v2 upgrade.
type record struct {
	Type   string         `json:"type"` // "span" or "event"
	Name   string         `json:"name"`
	Trace  string         `json:"trace_id,omitempty"`
	Span   string         `json:"span_id,omitempty"`
	Parent string         `json:"parent_id,omitempty"`
	TS     int64          `json:"ts_us"`
	Dur    float64        `json:"dur_us,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func emit(rec record) {
	s := sink.Load()
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.detached {
		// Raced DetachTraceWriter: the writer may already be flushed and
		// closed, so the record is dropped whole rather than truncated.
		return
	}
	// Encode ignores errors deliberately: a full disk must not take the
	// solver down, and there is no caller to report to mid-solve.
	_ = s.enc.Encode(rec)
}

// spanCtxKey carries a SpanContext in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc; SpanFromContext
// retrieves it. An invalid sc is carried as-is (and ignored by span
// creation), so callers need not special-case the zero value.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context carried by ctx, or the zero
// SpanContext when ctx carries none. It never allocates.
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// Event appends an instantaneous JSONL event, tagged with the process
// default parent's trace/span (when one is installed) so events
// correlate with the spans around them.
func Event(name string) {
	if sink.Load() == nil {
		return
	}
	rec := record{Type: "event", Name: name, TS: time.Now().UnixMicro()}
	if sc := ProcessParent(); sc.Valid() {
		rec.Trace = sc.TraceID.String()
		rec.Span = sc.SpanID.String()
	}
	emit(rec)
}
