package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// decodeRecords parses a JSONL trace buffer into generic records.
func decodeRecords(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

func str(rec map[string]any, key string) string {
	s, _ := rec[key].(string)
	return s
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewRoot()
	tp := sc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", tp, len(tp))
	}
	back, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tp, err)
	}
	if back != sc {
		t.Fatalf("round trip: got %+v, want %+v", back, sc)
	}
	// encode → decode → encode is the identity on the wire form too.
	if again := back.Traceparent(); again != tp {
		t.Fatalf("re-encode: got %q, want %q", again, tp)
	}
	// The zero context has no wire form.
	if got := (SpanContext{}).Traceparent(); got != "" {
		t.Fatalf("zero Traceparent() = %q, want empty", got)
	}
}

func TestParseTraceparentAcceptsKnownGood(t *testing.T) {
	// The example from the W3C spec.
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent: %v", err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		sc.SpanID.String() != "00f067aa0ba902b7" || !sc.Sampled() {
		t.Fatalf("parsed %+v", sc)
	}
	// Forward compatibility: a higher version with trailing fields parses
	// by its first 55 bytes.
	future := "01" + tp[2:] + "-extra"
	if _, err := ParseTraceparent(future); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	good := NewRoot().Traceparent()
	cases := map[string]string{
		"empty":           "",
		"short":           good[:54],
		"version 00 long": good + "-extra",
		"future no dash":  "01" + good[2:] + "x",
		"uppercase":       strings.ToUpper(good),
		"version ff":      "ff" + good[2:],
		"bad dash":        good[:2] + "_" + good[3:],
		"zero trace id":   "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":    "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"non-hex trace":   "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",
		"non-hex flags":   good[:53] + "zz",
		"non-hex version": "zz" + good[2:],
		"spaces":          " " + good[1:],
	}
	for name, in := range cases {
		if _, err := ParseTraceparent(in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, in)
		}
	}
}

func TestNewIDsAreUniqueAndNonzero(t *testing.T) {
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if id.IsZero() {
			t.Fatal("NewSpanID returned zero")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %v after %d draws", id, i)
		}
		seen[id] = true
	}
	if NewTraceID().IsZero() {
		t.Fatal("NewTraceID returned zero")
	}
}

// start opens a span-only stage named name under ctx.
func start(ctx context.Context, name string) (context.Context, Span) {
	return NewStage(name, nil).Start(ctx)
}

// startIn opens a span-only stage named name under parent.
func startIn(parent SpanContext, name string) Span {
	return NewStage(name, nil).StartIn(parent)
}

func TestSpanTreeLinkage(t *testing.T) {
	Enable()
	defer Disable()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)

	ctx, root := start(context.Background(), "root")
	ctx2, child := start(ctx, "child")
	_, grandchild := start(ctx2, "grandchild")
	grandchild.End()
	child.End()
	root.End()

	recs := decodeRecords(t, &buf)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]map[string]any{}
	for _, r := range recs {
		byName[str(r, "name")] = r
	}
	tid := str(byName["root"], "trace_id")
	if len(tid) != 32 {
		t.Fatalf("root trace_id %q, want 32 hex digits", tid)
	}
	if str(byName["root"], "parent_id") != "" {
		t.Errorf("root has parent %q, want none", str(byName["root"], "parent_id"))
	}
	for _, name := range []string{"child", "grandchild"} {
		if got := str(byName[name], "trace_id"); got != tid {
			t.Errorf("%s trace_id = %q, want %q", name, got, tid)
		}
	}
	if got, want := str(byName["child"], "parent_id"), str(byName["root"], "span_id"); got != want {
		t.Errorf("child parent_id = %q, want root span %q", got, want)
	}
	if got, want := str(byName["grandchild"], "parent_id"), str(byName["child"], "span_id"); got != want {
		t.Errorf("grandchild parent_id = %q, want child span %q", got, want)
	}
}

func TestProcessParentLinksOrphans(t *testing.T) {
	Enable()
	defer Disable()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)

	proc := startIn(SpanContext{}, "process")
	SetProcessParent(proc.Context())
	defer SetProcessParent(SpanContext{})

	orphan := startIn(SpanContext{}, "solver.stage")
	orphan.End()
	Event("pool.reject")
	SetProcessParent(SpanContext{})
	fresh := startIn(SpanContext{}, "fresh.root")
	fresh.End()
	proc.End()

	recs := decodeRecords(t, &buf)
	byName := map[string]map[string]any{}
	for _, r := range recs {
		byName[str(r, "name")] = r
	}
	procID := proc.Context()
	if got := str(byName["solver.stage"], "parent_id"); got != procID.SpanID.String() {
		t.Errorf("orphan parent_id = %q, want process span %q", got, procID.SpanID.String())
	}
	if got := str(byName["solver.stage"], "trace_id"); got != procID.TraceID.String() {
		t.Errorf("orphan trace_id = %q, want process trace %q", got, procID.TraceID.String())
	}
	if got := str(byName["pool.reject"], "trace_id"); got != procID.TraceID.String() {
		t.Errorf("event trace_id = %q, want process trace %q", got, procID.TraceID.String())
	}
	// After clearing the process parent, spans root fresh traces.
	if got := str(byName["fresh.root"], "parent_id"); got != "" {
		t.Errorf("fresh root has parent %q after clear", got)
	}
	if got := str(byName["fresh.root"], "trace_id"); got == procID.TraceID.String() {
		t.Error("fresh root reused the old process trace")
	}
}

// TestStageDisabledIsInert: with telemetry off a stage leaves ctx
// alone, returns an inert span and records nothing, even with a trace
// writer installed.
func TestStageDisabledIsInert(t *testing.T) {
	Disable()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	h := NewHistogram(LatencyBuckets)
	ctx := context.Background()
	ctx2, sp := NewStage("off", h).Start(ctx)
	if ctx2 != ctx {
		t.Error("Start rewrapped ctx with telemetry off")
	}
	if sp.Context().Valid() {
		t.Error("inert span has a valid context")
	}
	sp.Int("n", 1) // must not panic
	sp.End()
	if h.Count() != 0 || buf.Len() != 0 {
		t.Errorf("disabled stage recorded: %d observations, trace %q", h.Count(), buf.String())
	}
	if SpanFromContext(ctx).Valid() {
		t.Error("empty ctx carries a span")
	}
}

// TestStageFeedsHistogramWithoutTracing: with metrics on and no trace
// writer a stage observes its histogram once per End, carries no span
// context, and setting attributes allocates nothing. A histogram-only
// stage (no name) never emits a span, even while tracing.
func TestStageFeedsHistogramWithoutTracing(t *testing.T) {
	Enable()
	defer Disable()
	h := NewHistogram(LatencyBuckets)
	stage := NewStage("timed", h)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, sp := stage.Start(ctx)
		sp.Int("n", 1<<20)
		sp.Str("outcome", "miss")
		sp.End()
		if ctx2 != ctx || sp.Context().Valid() {
			t.Fatal("untraced stage carries a span")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced stage allocates %v per op, want 0", allocs)
	}
	if h.Count() != 101 {
		t.Errorf("histogram count %d, want 101", h.Count())
	}

	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	hOnly := NewHistogram(LatencyBuckets)
	sp := NewStage("", hOnly).StartIn(SpanContext{})
	sp.End()
	if hOnly.Count() != 1 || buf.Len() != 0 {
		t.Errorf("histogram-only stage: %d observations, trace %q", hOnly.Count(), buf.String())
	}
}

func TestDetachTraceWriterFlushesBuffered(t *testing.T) {
	Enable()
	defer Disable()
	var raw bytes.Buffer
	bw := bufio.NewWriter(&raw)
	SetTraceWriter(bw)

	sp := startIn(SpanContext{}, "buffered.span")
	sp.End()
	if err := DetachTraceWriter(); err != nil {
		t.Fatalf("DetachTraceWriter: %v", err)
	}
	if TraceEnabled() {
		t.Fatal("trace still enabled after detach")
	}
	recs := decodeRecords(t, &raw)
	if len(recs) != 1 || str(recs[0], "name") != "buffered.span" {
		t.Fatalf("flushed records = %v, want the buffered span", recs)
	}
	// Emitting after detach drops whole records — nothing new appears.
	dropped := startIn(SpanContext{}, "dropped")
	dropped.End()
	Event("dropped.event")
	if got := len(decodeRecords(t, &raw)); got != 1 {
		t.Fatalf("post-detach emits leaked: %d records", got)
	}
	// Detaching with nothing installed is a clean no-op.
	if err := DetachTraceWriter(); err != nil {
		t.Fatalf("second DetachTraceWriter: %v", err)
	}
}

// TestStageStartInLinksParent: a stage started under an explicit parent
// span context (how the solver stages parent to the request span in
// their workspace) links to it and carries its attributes.
func TestStageStartInLinksParent(t *testing.T) {
	Enable()
	defer Disable()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)

	parent := startIn(SpanContext{}, "request")
	stage := startIn(parent.Context(), "core.stage")
	stage.Int("n", 7)
	stage.End()
	parent.End()

	recs := decodeRecords(t, &buf)
	byName := map[string]map[string]any{}
	for _, r := range recs {
		byName[str(r, "name")] = r
	}
	if got, want := str(byName["core.stage"], "parent_id"), parent.Context().SpanID.String(); got != want {
		t.Errorf("stage parent_id = %q, want %q", got, want)
	}
	attrs, _ := byName["core.stage"]["attrs"].(map[string]any)
	if attrs["n"].(float64) != 7 {
		t.Errorf("stage attrs = %v", attrs)
	}
}
