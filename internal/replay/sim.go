// The replay harness proper: expand a scenario into a trace, play it
// through online.SimulateOpts with the chosen policy riding a
// latency-counting engine pipeline (or a live aaserve endpoint), and
// fold the per-event observations into a Report.
//
// Virtual clock. The trace supplies virtual event times; between
// events nothing happens, so the harness runs at whatever speed the
// hardware allows ("accelerated virtual time"). Re-solve latency in
// virtual time comes from a deterministic cost model — one solve of n
// threads on m servers occupies a single virtual solver for
// SolveCost·(n+m)·log2(n+m+2) seconds, with later solves queueing FIFO
// behind it — so queue-depth trajectories and virtual latency
// percentiles are bit-reproducible. Wall-clock latency is measured
// around each policy reaction and reported separately (Report.Wall),
// outside the determinism contract.
package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"syscall"
	"time"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/online"
	"aa/internal/stats"
	"aa/internal/telemetry"
)

// RunOptions parameterize one replay run.
type RunOptions struct {
	// Seed derives every random stream of the run.
	Seed uint64
	// Addr, when non-empty, replays against a live aaserve endpoint
	// (http://Addr/solve) instead of the in-process engine. Only the
	// full-resolve policy is supported remotely.
	Addr string
	// Events, when non-nil, is a pre-expanded timeline (a recorded
	// trace); nil generates the scenario's synthetic trace from Seed.
	Events []online.Event
	// Cache, when non-nil and not ModeOff, installs the solve-result
	// cache in the replay engine and adds a cache section to the report.
	// Replay determinism requires a TTL-free cache (Config.TTL = 0):
	// solves happen in event order, so hit/miss/warm counts are then a
	// pure function of the trace. Ignored for remote (Addr) replays —
	// caching happens server-side there.
	Cache cache.Cache
	// WarmK bounds the cache's warm-start repair (engine.Options.WarmK).
	WarmK int
}

// solveObserver collects what the engine middleware (or the HTTP
// policy) sees per re-solve: the count and the wall latency, plus the
// instance and super-optimal bound of the last in-process solve, so the
// hook can take F̂ from the solve instead of computing it a second time.
type solveObserver struct {
	count    int
	failures int
	wallSec  []float64

	// last is the instance of the most recent in-process solve, bound
	// its Response.Bound; solved is false when that solve failed.
	last   core.Instance
	bound  float64
	solved bool

	// noReuse makes the hook recompute every bound itself (the tests'
	// reference path); reused counts the bounds taken from a solve.
	noReuse bool
	reused  int
}

func (o *solveObserver) observe(wall time.Duration) {
	o.count++
	o.wallSec = append(o.wallSec, wall.Seconds())
}

// fail records a solve that never produced an assignment — a remote
// round trip that exhausted its retries. In-process runs never fail.
func (o *solveObserver) fail() { o.failures++ }

// middleware returns an engine middleware that counts and times every
// solve dispatched through the injected pipeline — the replay harness's
// hook into the real engine middleware chain.
func (o *solveObserver) middleware() engine.Middleware {
	return func(next engine.Handler) engine.Handler {
		return func(ctx context.Context, req *engine.Request, resp *engine.Response) error {
			start := time.Now()
			err := next(ctx, req, resp)
			o.observe(time.Since(start))
			o.last, o.bound, o.solved = *req.Instance, resp.Bound, err == nil
			return err
		}
	}
}

// The replay's trace spans: one per run and, in remote mode, one per
// re-solve event (its traceparent links the serving node's spans).
var (
	stageRun   = telemetry.NewStage("replay.run", nil)
	stageEvent = telemetry.NewStage("replay.event", nil)
)

// Run replays the scenario under the options and returns its report.
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	return run(sc, opts, &solveObserver{})
}

// run is Run with the solve observer supplied by the caller.
func run(sc *Scenario, opts RunOptions, obs *solveObserver) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	events := opts.Events
	var tstats TraceStats
	if events == nil {
		var err error
		events, tstats, err = Trace(sc, opts.Seed)
		if err != nil {
			return nil, err
		}
	} else {
		tstats = statsOf(events, sc.Horizon)
	}

	span := stageRun.StartIn(telemetry.SpanContext{})
	span.Str("scenario", sc.Name)
	span.Int("events", tstats.Events)
	defer span.End()

	var policy online.Policy
	if opts.Addr != "" {
		if sc.policyName() != "full-resolve" {
			return nil, fmt.Errorf("replay: remote replay (-addr) supports only the full-resolve policy, scenario wants %q", sc.policyName())
		}
		// The run span parents the per-event replay.event spans, whose
		// traceparent headers link the remote aaserve spans in turn.
		policy = &httpResolve{addr: opts.Addr, obs: obs, parent: span.Context()}
	} else {
		eng := engine.New(engine.Options{
			Middleware: []engine.Middleware{obs.middleware()},
			Cache:      opts.Cache,
			WarmK:      opts.WarmK,
		})
		defer eng.Close()
		switch sc.policyName() {
		case "full-resolve":
			policy = online.FullResolve{Engine: eng}
		case "incremental":
			policy = online.Incremental{}
		case "hybrid":
			thr := sc.HybridThreshold
			if thr == 0 {
				thr = core.Alpha
			}
			policy = online.Hybrid{Threshold: thr, Engine: eng}
		default:
			return nil, fmt.Errorf("replay: unknown policy %q", sc.policyName())
		}
	}

	acc := newAccumulator(sc, obs)
	// A cached engine answers hits and warm starts with a different,
	// conservative F̂, so only an uncached in-process engine's bound is
	// the one the hook would compute.
	acc.reuseBound = !obs.noReuse && opts.Addr == "" &&
		(opts.Cache == nil || opts.Cache.Mode() == cache.ModeOff)
	wallStart := time.Now()
	res, err := online.SimulateOpts(sc.Servers, sc.Capacity, events, policy,
		online.Options{Horizon: sc.Horizon, Hook: acc.hook})
	if err != nil {
		return nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
	}
	wallTotal := time.Since(wallStart)

	if telemetry.Enabled() {
		reg := telemetry.Default
		reg.Counter(telemetry.Label("aa_replay_runs_total", "scenario", sc.Name)).Inc()
		reg.Counter(telemetry.Label("aa_replay_events_total", "scenario", sc.Name)).Add(uint64(tstats.Events))
		reg.Counter(telemetry.Label("aa_replay_resolves_total", "scenario", sc.Name)).Add(uint64(obs.count))
	}

	rep := acc.report(sc, opts, tstats, res, obs, wallTotal)
	if opts.Addr == "" && opts.Cache != nil && opts.Cache.Mode() != cache.ModeOff {
		rep.Cache = newCacheStats(opts.Cache)
	}
	return rep, nil
}

// newCacheStats folds a cache's counters into the report section,
// deriving the hit and warm-start rates over the cacheable requests
// (bypasses excluded).
func newCacheStats(c cache.Cache) *CacheStats {
	st := c.Stats()
	cs := &CacheStats{
		Mode:       string(c.Mode()),
		Hits:       st.Hits,
		Misses:     st.Misses,
		WarmStarts: st.WarmStarts,
		Stores:     st.Stores,
		Evictions:  st.Evictions,
		Bypasses:   st.Bypasses,
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		cs.HitRate = float64(st.Hits) / float64(lookups)
		cs.WarmRate = float64(st.WarmStarts) / float64(lookups)
	}
	return cs
}

// accumulator folds per-event hook observations into the report: the
// utility/bound integrals, the virtual solve queue, and the trajectory
// samples. All arithmetic is in deterministic event order.
type accumulator struct {
	sc        *Scenario
	solveCost float64

	prevT       float64
	prevUtil    float64
	prevBound   float64
	utilInt     float64
	boundInt    float64
	finalUtil   float64
	finalBound  float64
	finalUp     int
	lastSolves  int
	resolves    int
	migrations  int
	queue       []float64 // virtual completion times of in-flight solves
	busyUntil   float64
	virtLatency []float64
	queuePeak   int

	grid    []Sample
	gridIdx int

	threads    int            // active threads after the last event
	ws         core.Workspace // the bound's super-optimal scratch
	reuseBound bool           // take F̂ from this event's solve when it matches

	obs *solveObserver
}

func newAccumulator(sc *Scenario, obs *solveObserver) *accumulator {
	n := sc.gridPoints()
	a := &accumulator{sc: sc, solveCost: sc.solveCost(), finalUp: sc.Servers, obs: obs}
	a.grid = make([]Sample, 0, n+1)
	return a
}

// gridTimes returns the k-th sample time.
func (a *accumulator) gridTime(k int) float64 {
	n := a.sc.gridPoints()
	return a.sc.Horizon * float64(k) / float64(n)
}

// advanceTo fills trajectory samples strictly before t with the current
// carried state and pops completed virtual solves.
func (a *accumulator) advanceTo(t float64) {
	n := a.sc.gridPoints()
	for a.gridIdx <= n {
		st := a.gridTime(a.gridIdx)
		if st >= t {
			break
		}
		a.sampleAt(st)
		a.gridIdx++
	}
}

// sampleAt records one trajectory point at virtual time st using the
// carried (post-previous-event) state.
func (a *accumulator) sampleAt(st float64) {
	depth := 0
	for _, done := range a.queue {
		if done > st {
			depth++
		}
	}
	a.grid = append(a.grid, Sample{
		T:          st,
		Threads:    a.threads,
		UpServers:  a.finalUp,
		QueueDepth: depth,
		Resolves:   a.resolves,
		Utility:    a.prevUtil,
		Bound:      a.prevBound,
	})
}

// hook is the online.Options.Hook: called after every applied event.
func (a *accumulator) hook(info online.EventInfo, s *online.State) {
	t := info.Event.Time
	// Integrate the piecewise-constant utility and bound up to t.
	a.utilInt += a.prevUtil * (t - a.prevT)
	a.boundInt += a.prevBound * (t - a.prevT)
	a.advanceTo(t)

	// Pop virtual solves that completed by now.
	for len(a.queue) > 0 && a.queue[0] <= t {
		a.queue = a.queue[1:]
	}

	// Recompute the instantaneous utility and super-optimal bound of
	// the post-event state, in the state's ascending-id order.
	newSolves := a.obs.count - a.lastSolves
	a.lastSolves = a.obs.count
	a.threads = s.Len()
	up := s.UpCount()
	a.finalUp = up
	a.prevUtil = info.Utility
	a.prevBound = 0
	if a.threads > 0 && up > 0 {
		in := core.Instance{M: up, C: s.C, Threads: s.Funcs()}
		if newSolves > 0 && a.solvedBound(&in) {
			a.prevBound = a.obs.bound
			a.obs.reused++
		} else {
			a.prevBound = a.ws.SuperOptimal(&in).Total
		}
	}
	a.prevT = t
	a.migrations += info.Migrated

	// Charge the virtual solver for any re-solves this event issued.
	for k := 0; k < newSolves; k++ {
		nm := float64(a.threads + a.sc.Servers)
		service := a.solveCost * nm * math.Log2(nm+2)
		if a.busyUntil < t {
			a.busyUntil = t
		}
		a.busyUntil += service
		a.queue = append(a.queue, a.busyUntil)
		a.virtLatency = append(a.virtLatency, a.busyUntil-t)
		a.resolves++
	}
	if d := len(a.queue); d > a.queuePeak {
		a.queuePeak = d
	}
}

// solvedBound reports whether the observer's last solve, run during
// the current event, computed exactly the bound the hook wants for in:
// reuse is on, the solve succeeded with a bound, and it ran on the same
// server count, capacity and thread slice. The thread slice is the
// state's own, unchanged between the policy's solve and the hook, so
// the solve's cold F̂ is bit-identical to recomputing it here.
func (a *accumulator) solvedBound(in *core.Instance) bool {
	o := a.obs
	return a.reuseBound && o.solved && !math.IsNaN(o.bound) &&
		o.last.M == in.M && o.last.C == in.C &&
		len(o.last.Threads) == len(in.Threads) && &o.last.Threads[0] == &in.Threads[0]
}

// report closes the integrals at the horizon, fills the trajectory tail
// and assembles the Report.
func (a *accumulator) report(sc *Scenario, opts RunOptions, tstats TraceStats,
	res online.Result, obs *solveObserver, wallTotal time.Duration) *Report {
	a.utilInt += a.prevUtil * (sc.Horizon - a.prevT)
	a.boundInt += a.prevBound * (sc.Horizon - a.prevT)
	// Remaining samples up to and including the horizon.
	n := sc.gridPoints()
	for a.gridIdx <= n {
		a.sampleAt(a.gridTime(a.gridIdx))
		a.gridIdx++
	}

	ratio := 0.0
	if a.boundInt > 0 {
		ratio = a.utilInt / a.boundInt
	}
	rep := &Report{
		Scenario: ScenarioInfo{
			Name:    sc.Name,
			Policy:  sc.policyName(),
			Solver:  solverLabel(opts),
			Servers: sc.Servers, Capacity: sc.Capacity, Horizon: sc.Horizon,
			SolveCost: sc.solveCost(),
		},
		Seed:  opts.Seed,
		Trace: tstats,
		Utility: UtilityStats{
			Integral:      a.utilInt,
			BoundIntegral: a.boundInt,
			Ratio:         ratio,
			Final:         a.prevUtil,
			FinalBound:    a.prevBound,
			FinalThreads:  res.FinalThreads,
		},
		Solves: SolveStats{
			Resolves:   a.resolves,
			Failed:     obs.failures,
			Migrations: a.migrations,
			VirtualP50: stats.Quantile(a.virtLatency, 0.50),
			VirtualP99: stats.Quantile(a.virtLatency, 0.99),
			VirtualMax: maxOf(a.virtLatency),
			QueuePeak:  a.queuePeak,
		},
		Trajectory: a.grid,
	}
	rep.Wall = &WallStats{
		TotalSec:    wallTotal.Seconds(),
		SolveP50Sec: stats.Quantile(obs.wallSec, 0.50),
		SolveP99Sec: stats.Quantile(obs.wallSec, 0.99),
	}
	if wallTotal > 0 && tstats.Events > 0 {
		rep.Wall.EventsPerSec = float64(tstats.Events) / wallTotal.Seconds()
	}
	return rep
}

func solverLabel(opts RunOptions) string {
	if opts.Addr != "" {
		return "http"
	}
	return "engine"
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// httpResolve is the remote full-resolve policy: every event snapshots
// the active set over the up servers, POSTs it to a live aaserve
// /solve endpoint, and applies the returned assignment. The wire round
// trip is the measured solve latency. With tracing on, every event
// solve runs under its own replay.event span (child of the replay.run
// span) whose context crosses to the server as the traceparent header,
// so the client-side trace and the aaserve trace join into one tree.
type httpResolve struct {
	addr   string
	obs    *solveObserver
	parent telemetry.SpanContext
	client http.Client
	sleep  func(time.Duration) // backoff hook; nil = time.Sleep
}

// Retry policy for the remote round trip. A replayed cluster restarts
// nodes and relays mid-run, so a refused connection or a backpressure
// status is a transient, not a failed solve — retry with doubling
// backoff before counting it against the run.
const (
	retryMax     = 5
	retryBase    = 25 * time.Millisecond
	retryBackoff = 500 * time.Millisecond
)

// retryableStatus reports whether an HTTP status is worth re-sending
// the same request for: backpressure (429), a dying hop (502) or a
// draining node (503).
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// retryableErr reports whether a transport error means "nobody is
// listening yet" rather than "the request is broken": connection
// refused is the restart window of a node or relay coming back up.
func retryableErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// post sends body to the node's /solve with capped exponential backoff,
// rebuilding the request per attempt from the buffered bytes. It
// returns the first definitive response; nil means retries ran out.
func (p *httpResolve) post(body []byte, traceparent string) *http.Response {
	sleep := p.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	wait := retryBase
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, "http://"+p.addr+"/solve", bytes.NewReader(body))
		if err != nil {
			return nil
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := p.client.Do(req)
		switch {
		case err != nil:
			if !retryableErr(err) || attempt == retryMax {
				return nil
			}
		case retryableStatus(resp.StatusCode):
			io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
			if attempt == retryMax {
				return nil
			}
		default:
			return resp
		}
		sleep(wait)
		if wait *= 2; wait > retryBackoff {
			wait = retryBackoff
		}
	}
}

// Name implements online.Policy.
func (*httpResolve) Name() string { return "full-resolve(http)" }

// React implements online.Policy.
func (p *httpResolve) React(s *online.State, ev online.Event) []int {
	var up []int
	for j := 0; j < s.M; j++ {
		if s.ServerUp(j) {
			up = append(up, j)
		}
	}
	ids := s.IDs()
	if len(ids) == 0 || len(up) == 0 {
		return nil
	}
	in := core.Instance{M: len(up), C: s.C, Threads: s.Funcs()}

	var buf bytes.Buffer
	if err := instio.Encode(&buf, &in); err != nil {
		return nil
	}
	span := stageEvent.StartIn(p.parent)
	span.Int("n", len(ids))
	span.Int("m", len(up))
	defer span.End()
	start := time.Now()
	resp := p.post(buf.Bytes(), span.Context().Traceparent())
	if resp == nil {
		p.obs.fail()
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.obs.fail()
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		p.obs.fail()
		return nil
	}
	out, err := instio.DecodeAssignment(body)
	if err != nil {
		p.obs.fail()
		return nil
	}
	p.obs.observe(time.Since(start))
	if len(out.Server) != len(ids) || len(out.Alloc) != len(ids) {
		return nil
	}
	var migrated []int
	for k, id := range ids {
		old, existed := s.Placement(id)
		srv := out.Server[k]
		if srv < 0 || srv >= len(up) {
			return migrated
		}
		next := online.Placement{Server: up[srv], Alloc: out.Alloc[k]}
		self := id == ev.ID && ev.Kind != online.Fail && ev.Kind != online.Recover
		if existed && !self && old.Server != next.Server {
			migrated = append(migrated, id)
		}
		s.SetPlacement(id, next)
	}
	return migrated
}
