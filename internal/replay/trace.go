// Trace generation: a scenario plus a seed expands deterministically
// into an online.Event timeline. Every random draw comes from a
// purpose-keyed rng.SplitPath stream, so traces are reproducible by
// construction and independent of how many other streams are consumed.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"aa/internal/gen"
	"aa/internal/online"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Stream path constants: base.SplitPath(stream, ...) names each
// independent random process of a scenario.
const (
	streamArrivals  = 1 // thinned Poisson arrival times
	streamLifetimes = 2 // exponential thread lifetimes
	streamUtilities = 3 // per-thread utility curves (split again by id)
	streamFailures  = 4 // failure episodes: gaps, groups, durations
	streamDrift     = 5 // drift times, victims and re-measured curves
	streamInitial   = 6 // initial-fleet utility curves (split again by id)
)

// TraceStats counts what a generated (or loaded) trace contains.
type TraceStats struct {
	Events      int `json:"events"`
	Arrivals    int `json:"arrivals"`
	Departures  int `json:"departures"`
	Drifts      int `json:"drifts"`
	Failures    int `json:"failures"`
	Recoveries  int `json:"recoveries"`
	PeakThreads int `json:"peakThreads"`
	// Batches counts ArriveBatch events; their cohort members are
	// included in Arrivals.
	Batches int `json:"batches,omitempty"`
}

// Trace expands the scenario into its event timeline under the seed.
// Events are sorted by (time, kind, id); departures scheduled past the
// horizon are retained (the simulator ignores them), so the final state
// reflects threads still live at the horizon.
func Trace(sc *Scenario, seed uint64) ([]online.Event, TraceStats, error) {
	if err := sc.Validate(); err != nil {
		return nil, TraceStats{}, err
	}
	dist, err := sc.Utility.dist()
	if err != nil {
		return nil, TraceStats{}, err
	}
	base := rng.New(seed)
	var events []online.Event

	type span struct{ arrive, depart float64 }
	var spans []span
	id := 0

	// The initial fleet: one ArriveBatch at t=0 admitting InitialThreads
	// threads that persist to the horizon (their spans stay open so the
	// drift process can pick them as victims). Churn ids start above.
	if k := sc.InitialThreads; k > 0 {
		init := base.SplitPath(streamInitial)
		batch := make([]online.BatchArrival, k)
		for i := 0; i < k; i++ {
			f, err := gen.Thread(dist, sc.Capacity, init.Split(uint64(i)))
			if err != nil {
				return nil, TraceStats{}, fmt.Errorf("replay: initial thread %d utility: %w", i, err)
			}
			batch[i] = online.BatchArrival{ID: i, Util: f}
			spans = append(spans, span{arrive: 0, depart: sc.Horizon + 1})
		}
		events = append(events, online.Event{Time: 0, Kind: online.ArriveBatch, ID: -1, Batch: batch})
		id = k
	}

	// Arrivals via Poisson thinning against λmax, with an exponential
	// lifetime and a three-point PCHIP utility per thread.
	arr := base.SplitPath(streamArrivals)
	life := base.SplitPath(streamLifetimes)
	util := base.SplitPath(streamUtilities)
	lambdaMax := sc.Arrivals.maxRate()
	t := 0.0
	for {
		t += arr.Exponential(lambdaMax)
		if t >= sc.Horizon {
			break
		}
		if arr.Float64() >= sc.Arrivals.Rate(t)/lambdaMax {
			continue
		}
		f, err := gen.Thread(dist, sc.Capacity, util.Split(uint64(id)))
		if err != nil {
			return nil, TraceStats{}, fmt.Errorf("replay: thread %d utility: %w", id, err)
		}
		depart := t + life.Exponential(1/sc.Lifetime.Mean)
		events = append(events,
			online.Event{Time: t, Kind: online.Arrive, ID: id, Util: f},
			online.Event{Time: depart, Kind: online.Depart, ID: id})
		spans = append(spans, span{arrive: t, depart: depart})
		id++
	}

	// Correlated failure episodes: sequential (never overlapping), each
	// taking a contiguous server group down together.
	if fs := sc.Failures; fs != nil {
		fr := base.SplitPath(streamFailures)
		t := 0.0
		for {
			gap := fr.Exponential(1 / fs.MTBF)
			if gap <= 0 {
				gap = 1e-9 // ULP guard: keep recover strictly before the next fail
			}
			t += gap
			if t >= sc.Horizon {
				break
			}
			first := fr.Intn(sc.Servers - fs.GroupSize + 1)
			dur := fr.Exponential(1 / fs.MTTR)
			if dur <= 0 {
				dur = 1e-9
			}
			for j := first; j < first+fs.GroupSize; j++ {
				events = append(events,
					online.Event{Time: t, Kind: online.Fail, ID: j},
					online.Event{Time: t + dur, Kind: online.Recover, ID: j})
			}
			t += dur
		}
	}

	// Drift: global Poisson re-measurement clock; each tick re-draws
	// the utility of a uniformly chosen thread active at that time.
	// Active sets are reconstructed from the arrival/departure spans,
	// walked in thread-id order for determinism.
	if sc.DriftRate > 0 {
		dr := base.SplitPath(streamDrift)
		t := 0.0
		for {
			t += dr.Exponential(sc.DriftRate)
			if t >= sc.Horizon {
				break
			}
			var active []int
			for id, sp := range spans {
				if sp.arrive < t && t < sp.depart {
					active = append(active, id)
				}
			}
			if len(active) == 0 {
				continue
			}
			victim := active[dr.Intn(len(active))]
			// Draw the re-measured curve from the drift stream itself:
			// it advances, so repeated drifts of one thread differ.
			f, err := gen.Thread(dist, sc.Capacity, dr)
			if err != nil {
				return nil, TraceStats{}, fmt.Errorf("replay: drift utility: %w", err)
			}
			events = append(events, online.Event{Time: t, Kind: online.Drift, ID: victim, Util: f})
		}
	}

	sortEvents(events)
	return events, statsOf(events, sc.Horizon), nil
}

// curveVW reconstructs the paper's three-point PCHIP utility through
// (0,0), (C/2, v), (C, v+w) from recorded curve parameters.
func curveVW(c, v, w float64) (utility.Func, error) {
	if w > v {
		v, w = w, v
	}
	return utility.NewSampled([]float64{0, c / 2, c}, []float64{0, v, v + w})
}

// sortEvents orders the timeline by (time, kind, id): arrivals precede
// same-instant departures, and failures precede the recoveries of a
// later episode never (episodes are gap-separated by construction).
func sortEvents(events []online.Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
}

// statsOf counts the events the simulator will actually apply (time <
// horizon) and the peak concurrent thread count.
func statsOf(events []online.Event, horizon float64) TraceStats {
	var st TraceStats
	live := 0
	for _, ev := range events {
		if ev.Time >= horizon {
			continue
		}
		st.Events++
		switch ev.Kind {
		case online.Arrive:
			st.Arrivals++
			live++
			if live > st.PeakThreads {
				st.PeakThreads = live
			}
		case online.Depart:
			st.Departures++
			live--
		case online.Drift:
			st.Drifts++
		case online.Fail:
			st.Failures++
		case online.Recover:
			st.Recoveries++
		case online.ArriveBatch:
			st.Batches++
			st.Arrivals += len(ev.Batch)
			live += len(ev.Batch)
			if live > st.PeakThreads {
				st.PeakThreads = live
			}
		}
	}
	return st
}

// --- Recorded traces ---
//
// A recorded trace is a self-contained JSON envelope: the cluster shape
// plus an explicit event list. Arrival and drift events carry the
// paper's (v, w) curve parameters — the utility is reconstructed as the
// PCHIP through (0,0), (C/2, v), (C, v+w) — so traces serialize without
// a general utility encoding and replay bit-identically.

// TraceFile is the on-disk recorded-trace format.
type TraceFile struct {
	Name     string  `json:"name"`
	Servers  int     `json:"servers"`
	Capacity float64 `json:"capacity"`
	// Horizon defaults to just past the last event when 0.
	Horizon float64 `json:"horizon,omitempty"`
	// Policy defaults to full-resolve when empty.
	Policy          string       `json:"policy,omitempty"`
	HybridThreshold float64      `json:"hybridThreshold,omitempty"`
	SolveCost       float64      `json:"solveCost,omitempty"`
	GridPoints      int          `json:"gridPoints,omitempty"`
	Events          []TraceEvent `json:"events"`
}

// TraceEvent is one recorded event. Kind is "arrive", "depart",
// "drift", "fail", "recover" or "arrive-batch"; arrive/drift carry V
// and W, arrive-batch carries Batch instead of ID.
type TraceEvent struct {
	T    float64 `json:"t"`
	Kind string  `json:"kind"`
	ID   int     `json:"id"`
	V    float64 `json:"v,omitempty"`
	W    float64 `json:"w,omitempty"`
	// Batch holds an arrive-batch cohort's per-thread curve parameters.
	Batch []TraceThread `json:"batch,omitempty"`
}

// TraceThread is one member of a recorded arrive-batch cohort.
type TraceThread struct {
	ID int     `json:"id"`
	V  float64 `json:"v"`
	W  float64 `json:"w,omitempty"`
}

// LoadTrace reads a recorded trace file and expands it into a scenario
// envelope (for reporting) plus the event timeline.
func LoadTrace(path string) (*Scenario, []online.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	sc, events, err := DecodeTrace(f)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return sc, events, nil
}

// DecodeTrace decodes a recorded trace from JSON.
func DecodeTrace(r io.Reader) (*Scenario, []online.Event, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tf TraceFile
	if err := dec.Decode(&tf); err != nil {
		return nil, nil, fmt.Errorf("decode trace: %w", err)
	}
	if tf.Servers < 1 || !(tf.Capacity > 0) {
		return nil, nil, fmt.Errorf("trace needs servers >= 1 and capacity > 0")
	}
	if len(tf.Events) == 0 {
		return nil, nil, fmt.Errorf("trace has no events")
	}
	events := make([]online.Event, 0, len(tf.Events))
	last := 0.0
	for i, te := range tf.Events {
		if te.T < 0 || math.IsNaN(te.T) {
			return nil, nil, fmt.Errorf("event %d: bad time %g", i, te.T)
		}
		if te.T > last {
			last = te.T
		}
		ev := online.Event{Time: te.T, ID: te.ID}
		switch te.Kind {
		case "arrive", "drift":
			if te.Kind == "arrive" {
				ev.Kind = online.Arrive
			} else {
				ev.Kind = online.Drift
			}
			f, err := curveVW(tf.Capacity, te.V, te.W)
			if err != nil {
				return nil, nil, fmt.Errorf("event %d: utility(v=%g, w=%g): %w", i, te.V, te.W, err)
			}
			ev.Util = f
		case "arrive-batch":
			if len(te.Batch) == 0 {
				return nil, nil, fmt.Errorf("event %d: arrive-batch without members", i)
			}
			ev.Kind = online.ArriveBatch
			ev.ID = -1
			ev.Batch = make([]online.BatchArrival, len(te.Batch))
			for k, tt := range te.Batch {
				f, err := curveVW(tf.Capacity, tt.V, tt.W)
				if err != nil {
					return nil, nil, fmt.Errorf("event %d: batch member %d: utility(v=%g, w=%g): %w",
						i, tt.ID, tt.V, tt.W, err)
				}
				ev.Batch[k] = online.BatchArrival{ID: tt.ID, Util: f}
			}
		case "depart":
			ev.Kind = online.Depart
		case "fail":
			ev.Kind = online.Fail
		case "recover":
			ev.Kind = online.Recover
		default:
			return nil, nil, fmt.Errorf("event %d: unknown kind %q", i, te.Kind)
		}
		events = append(events, ev)
	}
	sortEvents(events)
	name := tf.Name
	if name == "" {
		name = "trace"
	}
	horizon := tf.Horizon
	if horizon == 0 {
		horizon = last + 1
	}
	sc := &Scenario{
		Name: name, Servers: tf.Servers, Capacity: tf.Capacity, Horizon: horizon,
		Policy: tf.Policy, HybridThreshold: tf.HybridThreshold,
		SolveCost: tf.SolveCost, GridPoints: tf.GridPoints,
		// Envelope-only fields so Validate passes; a recorded trace
		// never consults the synthetic generators.
		Utility:  UtilitySpec{Dist: "uniform"},
		Arrivals: ArrivalSpec{BaseRate: 1},
		Lifetime: LifetimeSpec{Mean: 1},
	}
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	return sc, events, nil
}
