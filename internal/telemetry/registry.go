package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric. name carries optional Prometheus-style
// labels: `aa_experiment_trials_total{fig="fig1a"}`.
type entry struct {
	name    string
	kind    kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// base splits the entry name into metric base name and label block
// (including braces, or "" when unlabeled).
func (e *entry) base() (string, string) {
	if i := strings.IndexByte(e.name, '{'); i >= 0 {
		return e.name[:i], e.name[i:]
	}
	return e.name, ""
}

// Registry is a process-wide set of named metrics. Lookup is
// get-or-create: asking for the same name twice returns the same metric,
// so packages can declare their metrics independently at init. Asking
// for an existing name with a different kind (or different histogram
// bounds) panics — that is a programming error, caught at init in tests.
//
// The zero Registry is not usable; call NewRegistry or use Default.
type Registry struct {
	mu     sync.Mutex
	order  []*entry
	byName map[string]*entry

	// history is the optional snapshot ring started by StartHistory,
	// read by the /metrics/history handler.
	history atomic.Pointer[History]
}

// Default is the process-wide registry used by the instrumented
// packages (core, solverpool, experiment) and served by Handler.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// validName reports whether name is a legal Prometheus metric name with
// an optional {label="value",...} suffix. Kept permissive on the label
// block: it must merely be brace-delimited and non-empty.
func validName(name string) bool {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
		if len(labels) < 3 || labels[len(labels)-1] != '}' {
			return false
		}
	}
	if base == "" {
		return false
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// Label builds a labeled metric name from a base name and key/value
// pairs: Label("aa_experiment_trials_total", "fig", "fig1a") returns
// `aa_experiment_trials_total{fig="fig1a"}`. Values are quoted with the
// Prometheus escaping rules (backslash, quote, newline).
func Label(base string, kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the entry for name, creating it with mk when absent.
func (r *Registry) lookup(name string, k kind, mk func() *entry) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q already registered as %v, requested %v", name, e.kind, k))
		}
		return e
	}
	e := mk()
	r.byName[name] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	e := r.lookup(name, kindCounter, func() *entry {
		return &entry{name: name, kind: kindCounter, counter: new(Counter)}
	})
	return e.counter
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.lookup(name, kindGauge, func() *entry {
		return &entry{name: name, kind: kindGauge, gauge: new(Gauge)}
	})
	return e.gauge
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. Re-registering with different
// bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	e := r.lookup(name, kindHistogram, func() *entry {
		return &entry{name: name, kind: kindHistogram, hist: NewHistogram(bounds)}
	})
	if len(e.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different bounds", name))
	}
	for i := range bounds {
		if e.hist.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with different bounds", name))
		}
	}
	return e.hist
}

// snapshot copies the entry list so exporters iterate without holding
// the lock (metric values are atomics, safe to read live).
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.order...)
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation, +Inf spelled "+Inf").
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): one # TYPE comment per metric base
// name, `name value` sample lines, and the _bucket/_sum/_count triplet
// with cumulative le labels for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshot()
	typed := make(map[string]bool)
	for _, e := range entries {
		base, labels := e.base()
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.kind); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.gauge.Value())
		case kindHistogram:
			err = writePrometheusHistogram(w, base, labels, e.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePrometheusHistogram emits the cumulative bucket series. labels is
// "" or "{k=\"v\"}"; the le label is merged into the existing block.
func writePrometheusHistogram(w io.Writer, base, labels string, h *Histogram) error {
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le="%s"}`, base, le)
		}
		// Merge: {k="v"} -> {k="v",le="..."}
		return fmt.Sprintf(`%s_bucket%s,le="%s"}`, base, labels[:len(labels)-1], le)
	}
	counts := h.BucketCounts()
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", withLE(formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, cum)
	return err
}
