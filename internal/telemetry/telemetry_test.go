package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_ops_total"); again != c {
		t.Error("get-or-create returned a different counter")
	}
	g := r.Gauge("test_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_thing")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("test_thing")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has space", "half{label"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q accepted", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket semantics:
// a value exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 5.1, 100} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	// le=1: {0.5, 1}; le=2: {1.0000001, 2}; le=5: {4.9, 5}; +Inf: {5.1, 100}
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 4.9 + 5 + 5.1 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0, 1]: everything in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 0.02 {
		t.Errorf("p50 = %v, want ~0.5", q)
	}
	// Push 100 more into (1, 2]: p75 sits mid second bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(1 + float64(i)/100)
	}
	if q := h.Quantile(0.75); q < 1.4 || q > 1.6 {
		t.Errorf("p75 = %v, want ~1.5", q)
	}
	// Overflow clamps to the last bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Quantile(0.99); q != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this is the
// data-race proof for the atomic implementations.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total")
	g := r.Gauge("test_conc_depth")
	h := r.Histogram("test_conc_seconds", []float64{0.25, 0.5, 1})
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%4) / 4)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestPrometheusExposition parses the text output line by line: every
// line is either a # TYPE comment or a `name value` sample with a
// parsable value, and the expected names, types and values all appear.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total").Add(3)
	r.Gauge("test_depth").Set(-2)
	r.Counter(Label("test_tagged_total", "fig", "fig1a")).Add(7)
	h := r.Histogram("test_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := map[string]string{}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name (possibly with {labels}) space value. Split on the
		// last space so label values containing spaces would still parse.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable value in line %q: %v", line, err)
		}
		samples[name] = v
	}

	wantTypes := map[string]string{
		"test_total":        "counter",
		"test_depth":        "gauge",
		"test_tagged_total": "counter",
		"test_seconds":      "histogram",
	}
	for name, kind := range wantTypes {
		if types[name] != kind {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], kind)
		}
	}
	wantSamples := map[string]float64{
		"test_total":                     3,
		"test_depth":                     -2,
		`test_tagged_total{fig="fig1a"}`: 7,
		`test_seconds_bucket{le="0.1"}`:  1,
		`test_seconds_bucket{le="1"}`:    2,
		`test_seconds_bucket{le="+Inf"}`: 3,
		"test_seconds_count":             3,
	}
	for name, v := range wantSamples {
		got, ok := samples[name]
		if !ok {
			t.Errorf("missing sample %s in output:\n%s", name, out)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if s := samples["test_seconds_sum"]; math.Abs(s-5.55) > 1e-9 {
		t.Errorf("test_seconds_sum = %v, want 5.55", s)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("aa_x_total", "fig", "fig1a", "param", "3"); got != `aa_x_total{fig="fig1a",param="3"}` {
		t.Errorf("Label = %q", got)
	}
	if got := Label("aa_x_total", "k", `a"b`); got != `aa_x_total{k="a\"b"}` {
		t.Errorf("Label escaping = %q", got)
	}
	if got := Label("aa_x_total"); got != "aa_x_total" {
		t.Errorf("Label no kv = %q", got)
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	if Enabled() {
		t.Fatal("telemetry enabled at package start")
	}
	Enable()
	if !Enabled() {
		t.Error("Enable did not take")
	}
	Disable()
	if Enabled() {
		t.Error("Disable did not take")
	}
}

func TestTraceSpansAndEvents(t *testing.T) {
	Enable()
	defer Disable()
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	sp := NewStage("core.solve", nil).StartIn(SpanContext{})
	sp.Str("fig", "fig1a")
	sp.Int("n", 40)
	Event("pool.reject")
	sp.End()

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev, span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event line not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatalf("span line not JSON: %v", err)
	}
	if ev["type"] != "event" || ev["name"] != "pool.reject" {
		t.Errorf("event record = %v", ev)
	}
	if span["type"] != "span" || span["name"] != "core.solve" {
		t.Errorf("span record = %v", span)
	}
	attrs := span["attrs"].(map[string]any)
	if attrs["fig"] != "fig1a" || attrs["n"].(float64) != 40 {
		t.Errorf("span attrs = %v", attrs)
	}
	if span["dur_us"].(float64) < 0 {
		t.Errorf("negative span duration: %v", span["dur_us"])
	}
}

func TestTraceDisabledIsInert(t *testing.T) {
	Enable()
	defer Disable()
	SetTraceWriter(nil)
	if TraceEnabled() {
		t.Fatal("trace enabled with no writer")
	}
	sp := NewStage("should.not.panic", nil).StartIn(SpanContext{})
	sp.End()
	Event("also.fine")
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("aa_test_requests_total").Add(2)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "aa_test_requests_total 2") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: code %d, body %.80q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("/: code %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope: code %d, want 404", code)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	r := NewRegistry()
	r.Counter("aa_test_total").Inc()
	s, err := Serve("localhost:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(s.Addr, ":") || strings.HasSuffix(s.Addr, ":0") {
		t.Fatalf("Addr = %q, want a real port", s.Addr)
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "aa_test_total 1") {
		t.Errorf("scrape missing metric:\n%s", body)
	}
}

func TestSetupAndShutdown(t *testing.T) {
	defer Disable()
	trace := t.TempDir() + "/trace.jsonl"
	var logged bytes.Buffer
	shutdown, err := Setup("localhost:0", trace, func(format string, args ...any) {
		logged.WriteString(strings.TrimSpace(format))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() || !TraceEnabled() {
		t.Error("Setup did not enable telemetry/trace")
	}
	Event("test.event")
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if TraceEnabled() {
		t.Error("trace writer still installed after shutdown")
	}
	if logged.Len() == 0 {
		t.Error("no activation lines logged")
	}
	// Both flags empty: still a usable no-op shutdown.
	shutdown, err = Setup("", "", nil)
	if err != nil || shutdown == nil {
		t.Fatalf("empty Setup: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Errorf("empty shutdown: %v", err)
	}
}

// Map-iteration-order audit pin (the State.Loads class of bug): the
// exposition text is canonical output fed from registry state, so it
// must ride the ordered entry list, never Go map order. Two registries
// populated identically — and repeated exports of one registry — must
// be byte-identical.
func TestWritePrometheusByteDeterministic(t *testing.T) {
	populate := func() *Registry {
		r := NewRegistry()
		for i := 0; i < 40; i++ {
			r.Counter(Label("audit_total", "shard", fmt.Sprintf("s%02d", i))).Add(uint64(i))
		}
		r.Gauge("audit_depth").Set(7)
		h := r.Histogram("audit_seconds", []float64{0.1, 1, 10})
		for i := 0; i < 10; i++ {
			h.Observe(float64(i) / 3)
		}
		return r
	}
	var a, b, again bytes.Buffer
	ra, rb := populate(), populate()
	if err := ra.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := rb.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := ra.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identically populated registries export different bytes:\n%s\nvs\n%s", &a, &b)
	}
	if !bytes.Equal(a.Bytes(), again.Bytes()) {
		t.Fatal("repeated export of one registry changed bytes")
	}
}
