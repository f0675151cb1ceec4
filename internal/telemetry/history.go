package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Metrics history: a bounded in-memory ring of periodic registry
// snapshots, so a scrape of GET /metrics/history answers "what did the
// counters and latency quantiles look like over the last N minutes"
// without an external time-series database. Snapshots are compact —
// counters and gauges keep their value, histograms are reduced to
// count/sum and the p50/p90/p99 estimates — so a default ring
// (360 points × 10 s = one hour) stays small even with hundreds of
// registered metrics.

// HistoryValue is one metric's reduction inside a snapshot.
type HistoryValue struct {
	Type  string  `json:"type"`
	Value float64 `json:"value"`           // counter/gauge value; histogram sum
	Count uint64  `json:"count,omitempty"` // histograms only
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// HistorySnapshot is the state of every registered metric at one
// instant.
type HistorySnapshot struct {
	TS      time.Time               `json:"ts"`
	Metrics map[string]HistoryValue `json:"metrics"`
}

// historyCapacity is the ring size in snapshots: one hour at the
// default 10 s interval.
const historyCapacity = 360

// History is a running snapshot ring over one registry. Create it with
// Registry.StartHistory; stop the background ticker with Stop.
type History struct {
	reg      *Registry
	interval time.Duration

	mu    sync.Mutex
	ring  []HistorySnapshot
	next  int
	count int

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartHistory starts (or returns the already-running) metrics-history
// recorder for the registry: one immediate snapshot, then one every
// interval (<= 0 means 10 s) until Stop, keeping the newest 360. The
// first call wins; later calls return the existing recorder and ignore
// their interval.
func (r *Registry) StartHistory(interval time.Duration) *History {
	return r.startHistory(interval, historyCapacity)
}

// startHistory is StartHistory with the ring size as a parameter.
func (r *Registry) startHistory(interval time.Duration, capacity int) *History {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	h := &History{
		reg:      r,
		interval: interval,
		ring:     make([]HistorySnapshot, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if !r.history.CompareAndSwap(nil, h) {
		return r.history.Load()
	}
	go h.loop()
	return h
}

// History returns the registry's running history recorder, or nil when
// StartHistory has not been called.
func (r *Registry) History() *History { return r.history.Load() }

// Interval returns the snapshot period.
func (h *History) Interval() time.Duration { return h.interval }

// Capacity returns the ring size in snapshots.
func (h *History) Capacity() int { return len(h.ring) }

func (h *History) loop() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	h.TakeSnapshot()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.TakeSnapshot()
		}
	}
}

// Stop halts the background ticker and waits for it to exit. The
// recorded snapshots stay readable; the recorder stays installed on
// the registry (a process stops history only on shutdown).
func (h *History) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// TakeSnapshot records the registry's current state into the ring. The
// background ticker calls it on schedule; tests and callers needing a
// point-in-time record may call it directly.
func (h *History) TakeSnapshot() {
	snap := HistorySnapshot{TS: time.Now(), Metrics: h.reg.historyValues()}
	h.mu.Lock()
	h.ring[h.next] = snap
	h.next = (h.next + 1) % len(h.ring)
	if h.count < len(h.ring) {
		h.count++
	}
	h.mu.Unlock()
}

// Snapshots returns the retained snapshots, oldest first.
func (h *History) Snapshots() []HistorySnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistorySnapshot, 0, h.count)
	start := h.next - h.count
	if start < 0 {
		start += len(h.ring)
	}
	for i := 0; i < h.count; i++ {
		out = append(out, h.ring[(start+i)%len(h.ring)])
	}
	return out
}

// historyValues reduces every registered metric to its HistoryValue.
func (r *Registry) historyValues() map[string]HistoryValue {
	entries := r.snapshot()
	out := make(map[string]HistoryValue, len(entries))
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out[e.name] = HistoryValue{Type: "counter", Value: float64(e.counter.Value())}
		case kindGauge:
			out[e.name] = HistoryValue{Type: "gauge", Value: float64(e.gauge.Value())}
		case kindHistogram:
			h := e.hist
			out[e.name] = HistoryValue{
				Type:  "histogram",
				Value: h.Sum(),
				Count: h.Count(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			}
		}
	}
	return out
}

// historyResponse is the JSON shape of GET /metrics/history.
type historyResponse struct {
	IntervalSeconds float64           `json:"interval_seconds"`
	Capacity        int               `json:"capacity"`
	Snapshots       []HistorySnapshot `json:"snapshots"`
}

// historyHandler serves the history ring as JSON. ?last=N limits the
// response to the N most recent snapshots.
func historyHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := reg.History()
		if h == nil {
			http.Error(w, "metrics history not enabled (telemetry.Registry.StartHistory)", http.StatusNotFound)
			return
		}
		snaps := h.Snapshots()
		if v := r.URL.Query().Get("last"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			if n < len(snaps) {
				snaps = snaps[len(snaps)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(historyResponse{
			IntervalSeconds: h.Interval().Seconds(),
			Capacity:        h.Capacity(),
			Snapshots:       snaps,
		})
	}
}
