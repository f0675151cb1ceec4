package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"aa/internal/core"
	"aa/internal/telemetry"
)

// traceRecord is the slice of the JSONL schema these tests assert on.
type traceRecord struct {
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace_id"`
	Span   string         `json:"span_id"`
	Parent string         `json:"parent_id"`
	Attrs  map[string]any `json:"attrs"`
}

func decodeTrace(t *testing.T, buf *bytes.Buffer) []traceRecord {
	t.Helper()
	var out []traceRecord
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec traceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// TestSolveEmitsConnectedSpanTree pins the tentpole contract at the
// engine layer: one solve with tracing on produces a single connected
// tree — engine.solve root, engine.dispatch and engine.check children,
// core solver stages under dispatch — all sharing one trace ID.
func TestSolveEmitsConnectedSpanTree(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	eng := New(Options{})
	in := corpus(t, 1, 40)[0]
	req := &Request{Instance: in, Check: true}
	if _, err := eng.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	recs := decodeTrace(t, &buf)
	byName := map[string]traceRecord{}
	byID := map[string]traceRecord{}
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		byName[r.Name] = r
		byID[r.Span] = r
	}

	root, ok := byName["engine.solve"]
	if !ok {
		t.Fatalf("no engine.solve span in:\n%s", buf.String())
	}
	if root.Parent != "" {
		t.Errorf("engine.solve has parent %q, want a fresh root", root.Parent)
	}
	if root.Attrs["backend"] != "assign2" || root.Attrs["n"].(float64) != 40 ||
		root.Attrs["check"] != true || root.Attrs["ok"] != true {
		t.Errorf("engine.solve attrs = %v", root.Attrs)
	}
	if _, hasM := root.Attrs["m"]; !hasM {
		t.Errorf("engine.solve missing m attr: %v", root.Attrs)
	}

	dispatch, ok := byName["engine.dispatch"]
	if !ok {
		t.Fatal("no engine.dispatch span")
	}
	if dispatch.Parent != root.Span {
		t.Errorf("engine.dispatch parent = %q, want engine.solve %q", dispatch.Parent, root.Span)
	}
	checkSpan, ok := byName["engine.check"]
	if !ok {
		t.Fatal("no engine.check span")
	}
	if checkSpan.Parent != root.Span {
		t.Errorf("engine.check parent = %q, want engine.solve %q", checkSpan.Parent, root.Span)
	}
	for _, stage := range []string{"core.superopt", "core.assign2"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("no %s span", stage)
		}
		if sp.Parent != dispatch.Span {
			t.Errorf("%s parent = %q, want engine.dispatch %q", stage, sp.Parent, dispatch.Span)
		}
	}

	// Every span shares the root's trace and every parent resolves.
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		if r.Trace != root.Trace {
			t.Errorf("span %s trace %q, want %q", r.Name, r.Trace, root.Trace)
		}
		if r.Parent != "" {
			if _, ok := byID[r.Parent]; !ok {
				t.Errorf("span %s parent %q not in the file", r.Name, r.Parent)
			}
		}
	}
}

// TestSolveInheritsCallerSpan pins context propagation: a caller that
// carries a span (an HTTP middleware, a replay event) becomes the
// parent of the engine.solve root, joining the caller's trace.
func TestSolveInheritsCallerSpan(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	eng := New(Options{})
	in := corpus(t, 1, 20)[0]

	ctx, caller := telemetry.NewStage("caller.request", nil).Start(context.Background())
	if _, err := eng.Solve(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}
	caller.End()

	recs := decodeTrace(t, &buf)
	byName := map[string]traceRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	callerRec, root := byName["caller.request"], byName["engine.solve"]
	if root.Parent != callerRec.Span {
		t.Errorf("engine.solve parent = %q, want caller span %q", root.Parent, callerRec.Span)
	}
	if root.Trace != callerRec.Trace {
		t.Errorf("engine.solve trace = %q, want caller trace %q", root.Trace, callerRec.Trace)
	}
}

// TestSubmitPropagatesSpanAcrossPool pins that the span context crosses
// the solver pool: a Submit from a traced caller still parents the
// engine.solve span to the caller even though a worker goroutine runs
// the solve.
func TestSubmitPropagatesSpanAcrossPool(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	eng := New(Options{})
	defer eng.Close()
	in := corpus(t, 1, 20)[0]

	ctx, caller := telemetry.NewStage("caller.submit", nil).Start(context.Background())
	if _, err := eng.Submit(ctx, &Request{Instance: in}); err != nil {
		t.Fatal(err)
	}
	caller.End()

	recs := decodeTrace(t, &buf)
	byName := map[string]traceRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if got, want := byName["engine.solve"].Parent, byName["caller.submit"].Span; got != want {
		t.Errorf("engine.solve parent = %q, want submitting span %q", got, want)
	}
}

// traceStructure solves, with tracing on, one instance through a cached
// engine three times — a checked miss, an exact hit and a warm start on
// a churned copy — and returns one line per span in emission order:
// its name, its parent's name and its sorted attribute keys. Span and
// trace IDs, times and attribute values are left out, so two runs with
// the same inputs must give the same lines.
func traceStructure(t *testing.T) []string {
	t.Helper()
	telemetry.Enable()
	defer telemetry.Disable()
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	eng, c := newCached(t, 8)
	ctx := context.Background()
	ins := corpus(t, 4, 60)
	in := ins[0]
	for _, inst := range []*core.Instance{in, in, churn(in, ins[3], 3)} {
		if _, err := eng.Solve(ctx, &Request{Instance: inst, Check: true}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.WarmStarts != 1 {
		t.Fatalf("want one hit and one warm start, got %+v", st)
	}

	recs := decodeTrace(t, &buf)
	names := map[string]string{}
	for _, r := range recs {
		names[r.Span] = r.Name
	}
	var lines []string
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		parent := "-"
		if r.Parent != "" {
			parent = names[r.Parent]
		}
		keys := make([]string, 0, len(r.Attrs))
		for k := range r.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lines = append(lines, r.Name+" <- "+parent+" ["+strings.Join(keys, ",")+"]")
	}
	return lines
}

// TestTraceStructurePinned pins the span tree of a traced solve through
// the cache, the check and the warm-start path: names, parent links and
// attribute keys, in emission order. It runs twice and both runs must
// match each other and the pinned structure.
func TestTraceStructurePinned(t *testing.T) {
	want := []string{
		// Miss: the cache layer runs the checked inner chain.
		"core.superopt <- engine.dispatch [n]",
		"core.assign2 <- engine.dispatch [n]",
		"engine.dispatch <- engine.cache [backend,ok]",
		"engine.check <- engine.cache [ok]",
		"engine.cache <- engine.solve [ok,outcome]",
		"engine.solve <- - [backend,check,m,n,ok]",
		// Exact hit: served from the cache layer.
		"engine.cache <- engine.solve [ok,outcome]",
		"engine.solve <- - [backend,check,m,n,ok]",
		// Warm start: the repair runs under the cache span.
		"core.superopt.warm <- engine.cache [n]",
		"core.assign2.warm <- engine.cache [n]",
		"engine.cache <- engine.solve [ok,outcome]",
		"engine.solve <- - [backend,check,m,n,ok]",
	}
	first := traceStructure(t)
	second := traceStructure(t)
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("trace structure differs between runs:\n%s\n--- vs ---\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	if strings.Join(first, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace structure:\n%s\nwant:\n%s", strings.Join(first, "\n"), strings.Join(want, "\n"))
	}
}
