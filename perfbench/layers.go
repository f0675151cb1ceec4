package main

// Traced-run machinery: an in-memory span recorder and the in-process
// replay of one request's inputs through the layers' public functions.
// Span names follow the ROADMAP layer taxonomy (relay.forward,
// edge.decode, cache.lookup, core.superopt, core.linearize,
// core.assign2, edge.encode) plus engine.submit/engine.solve, core.warm
// and the online.* layers, so a later in-program tracer can be diffed
// against these files.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"time"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/telemetry"
)

// span is one timed call. The replay runs nested layers as separate
// calls one after another, so a parent's self time is its duration
// minus its children's durations, not minus the interval they cover.
// A derived span (relay.forward) is a difference of two measured round
// trips rather than one call; it starts where its request starts.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Req     int    `json:"req"`    // request id within the workload script
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a call that ran from start to end and returns its id.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// derived records a span of the given length that starts with its
// parent.
func (r *recorder) derived(name string, parent, req int, d time.Duration) int {
	p := r.spans[parent-1]
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: p.Start, End: p.Start + d.Nanoseconds(), Derived: true})
	return id
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown aggregates the spans of one traced pass. root names the
// span that is the end-to-end unit (one per request); layer values are
// means per root, zero for requests the layer did not serve.
type breakdown struct {
	roots   int
	rootMs  float64            // sum of root durations
	totalMs map[string]float64 // sum of span durations by name
	selfMs  map[string]float64 // sum of self times by name
	underMs float64            // sum of self times of the roots' descendants
}

func (r *recorder) breakdown(root string) *breakdown {
	b := &breakdown{totalMs: map[string]float64{}, selfMs: map[string]float64{}}
	children := make(map[int]float64)
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	// underRoot reports whether a span descends from a root span.
	underRoot := func(s *span) bool {
		for s.Parent != 0 {
			s = &r.spans[s.Parent-1]
			if s.Name == root {
				return true
			}
		}
		return false
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name == root {
			b.roots++
			b.rootMs += s.dur()
			continue
		}
		self := s.dur() - children[s.ID]
		b.totalMs[s.Name] += s.dur()
		b.selfMs[s.Name] += self
		if underRoot(s) {
			b.underMs += self
		}
	}
	return b
}

// mean is a layer's mean duration per end-to-end request.
func (b *breakdown) mean(name string) float64 {
	if b.roots == 0 {
		return 0
	}
	return b.totalMs[name] / float64(b.roots)
}

// selfMean is a layer's mean self time per end-to-end request.
func (b *breakdown) selfMean(name string) float64 {
	if b.roots == 0 {
		return 0
	}
	return b.selfMs[name] / float64(b.roots)
}

// unaccounted is 1 minus the summed self time of the layers under the
// end-to-end spans over the summed end-to-end time. Means, not medians,
// are used because means add up. It is negative when layers overlap in
// time (the batch pipeline solves while it decodes).
func (b *breakdown) unaccounted() float64 {
	if b.rootMs == 0 {
		return 0
	}
	return 1 - b.underMs/b.rootMs
}

// selfTable lists each layer's mean self time per request, for the report.
func (b *breakdown) selfTable() map[string]float64 {
	out := make(map[string]float64, len(b.selfMs))
	for n := range b.selfMs {
		out[n] = b.selfMean(n)
	}
	return out
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layers replays requests through the node-side layers in process.
// submitEng and solveEng are configured like the server; for a cached
// server they are two engines whose caches see the same request
// sequence, so Submit and SolveInto of one request do the same work.
type layers struct {
	rec       *recorder
	submitEng *engine.Engine
	solveEng  *engine.Engine
	solveC    cache.Cache // solveEng's cache; nil when the server runs without one
	warmK     int
	request   func(in *core.Instance, checked bool) engine.Request
	ws        *core.Workspace
	asg       core.Assignment
	bisect    *telemetry.Counter

	decodeAllocKB float64 // summed over the pass
	iters         uint64  // λ-search iterations over cold core.superopt calls
	superopts     int
}

func newLayers(rec *recorder, workers int, mkCache func() cache.Cache, warmK int) *layers {
	// Counters only move while telemetry is on, as in every server.
	telemetry.Enable()
	l := &layers{rec: rec, ws: core.NewWorkspace(), warmK: warmK, request: serverRequest,
		bisect: telemetry.Default.Counter("aa_core_bisection_iterations_total")}
	if mkCache == nil {
		l.submitEng = engine.New(engine.Options{Workers: workers})
		l.solveEng = l.submitEng
		return l
	}
	l.submitEng = engine.New(engine.Options{Workers: workers, Cache: mkCache(), WarmK: warmK})
	l.solveC = mkCache()
	l.solveEng = engine.New(engine.Options{Workers: workers, Cache: l.solveC, WarmK: warmK})
	return l
}

func (l *layers) close() {
	l.submitEng.Close()
	if l.solveEng != l.submitEng {
		l.solveEng.Close()
	}
}

// serverRequest builds the engine request aaserve builds for a /solve with
// no query parameters besides check.
func serverRequest(in *core.Instance, checked bool) engine.Request {
	return engine.Request{Instance: in, Backend: "a2", Seed: 1, WantUtility: true, Check: checked}
}

// decode times one instio decode, from a fresh reader (dec == nil) or
// the next element of a streaming decoder.
func (l *layers) decode(parent, req int, body []byte, dec *json.Decoder) (*core.Instance, error) {
	a0 := allocBytes()
	t0 := time.Now()
	var in *core.Instance
	var err error
	if dec == nil {
		in, err = instio.Decode(bytes.NewReader(body))
	} else {
		in, err = instio.DecodeNext(dec)
	}
	t1 := time.Now()
	l.decodeAllocKB += float64(allocBytes()-a0) / 1024
	l.rec.add("edge.decode", parent, req, t0, t1)
	return in, err
}

// outcome of a node-side cache lookup, as the script predicts it.
const (
	nodeCold         = iota // no cache, or a miss with no warm candidate
	nodeWarm                // warm-start repair served the request
	nodeWarmFallback        // the repair failed its checks; solved cold
	nodeHit
)

// solve replays the engine and core layers for one decoded instance:
// engine.submit (Submit; only when viaQueue) ⊃ engine.solve (SolveInto)
// ⊃ cache.lookup, then core.warm or the cold core.superopt/linearize/
// assign2 stages. It returns the response edge.encode renders.
func (l *layers) solve(parent, req int, in *core.Instance, checked bool, want int, viaQueue bool) (*engine.Response, error) {
	ctx := context.Background()
	solveParent := parent
	if viaQueue {
		sreq := l.request(in, checked)
		t0 := time.Now()
		if _, err := l.submitEng.Submit(ctx, &sreq); err != nil {
			return nil, fmt.Errorf("engine.Submit: %w", err)
		}
		solveParent = l.rec.add("engine.submit", parent, req, t0, time.Now())
	}

	// The cache and core layers run before SolveInto so the warm seed
	// comes from the cache state the server saw; their spans are
	// re-parented under engine.solve once it is recorded.
	var kids []int
	if l.solveC != nil {
		t0 := time.Now()
		canon, err := cache.CanonicalizeKeyed(in, l.solveC.HashKey())
		if err != nil {
			return nil, err
		}
		key := cache.RequestKey(canon.Fingerprint(), cache.Params{Backend: "assign2"})
		_, hit := l.solveC.Get(key)
		kids = append(kids, l.rec.add("cache.lookup", 0, req, t0, time.Now()))
		if hit != (want == nodeHit) {
			return nil, fmt.Errorf("in-process cache hit=%v, but the script predicts outcome %d", hit, want)
		}
		if want == nodeWarm || want == nodeWarmFallback {
			seed, ok := l.warmSeed(canon, in)
			if !ok {
				return nil, fmt.Errorf("no warm-start candidate for a scripted drift")
			}
			t0 = time.Now()
			l.ws.Assign2Warm(in, seed, &l.asg)
			kids = append(kids, l.rec.add("core.warm", 0, req, t0, time.Now()))
		}
	}
	if want == nodeCold || want == nodeWarmFallback {
		kids = append(kids, l.coreStages(req, in)...)
	}

	var resp engine.Response
	sreq := l.request(in, checked)
	t0 := time.Now()
	if err := l.solveEng.SolveInto(ctx, &sreq, &resp); err != nil {
		return nil, fmt.Errorf("engine.SolveInto: %w", err)
	}
	solve := l.rec.add("engine.solve", solveParent, req, t0, time.Now())
	for _, k := range kids {
		l.rec.spans[k-1].Parent = solve
	}
	return &resp, nil
}

// coreStages times the cold solve's three stages on a workspace and
// returns their span ids, parentless until the caller adopts them.
func (l *layers) coreStages(req int, in *core.Instance) []int {
	i0 := l.bisect.Value()
	t0 := time.Now()
	so := l.ws.SuperOptimal(in)
	t1 := time.Now()
	gs := l.ws.Linearize(in, so)
	t2 := time.Now()
	l.ws.Assign2Linearized(in, gs, &l.asg)
	t3 := time.Now()
	l.iters += l.bisect.Value() - i0
	l.superopts++
	return []int{
		l.rec.add("core.superopt", 0, req, t0, t1),
		l.rec.add("core.linearize", 0, req, t1, t2),
		l.rec.add("core.assign2", 0, req, t2, t3),
	}
}

// prefill feeds a set-up request to both engines, so their caches
// start where the node's does.
func (l *layers) prefill(in *core.Instance) error {
	sreq := l.request(in, false)
	if _, err := l.submitEng.Submit(context.Background(), &sreq); err != nil {
		return err
	}
	sreq = l.request(in, false)
	var resp engine.Response
	return l.solveEng.SolveInto(context.Background(), &sreq, &resp)
}

// relayLookup times what aarelay does before it can answer or forward
// a /solve: decode the body, fingerprint it under the relay's key, and
// look the request key up.
func (l *layers) relayLookup(parent, req int, body []byte, c cache.Cache) error {
	t0 := time.Now()
	in, err := instio.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	canon, err := cache.CanonicalizeKeyed(in, c.HashKey())
	if err != nil {
		return err
	}
	c.Get(cache.RequestKey(canon.Fingerprint(), cache.Params{Backend: "assign2"}))
	l.rec.add("relay.lookup", parent, req, t0, time.Now())
	return nil
}

// warmSeed rebuilds the seed the engine's warm-start path derives: the
// most recent candidate in the instance's group within warmK threads,
// its placements remapped onto the request's thread order.
func (l *layers) warmSeed(canon *cache.Canonical, in *core.Instance) (core.WarmSeed, bool) {
	n := len(canon.Perm)
	for _, e := range l.solveC.Candidates(canon.GroupKey("assign2"), nil) {
		if e.Canon == nil || !(e.Lambda > 0) {
			continue
		}
		matched, onlyA, onlyB := cache.Diff(e.Canon, canon)
		if len(onlyA) > l.warmK || len(onlyB) > l.warmK {
			continue
		}
		seed := core.WarmSeed{Lambda: e.Lambda, Server: make([]int, n), Alloc: make([]float64, n)}
		for i := range seed.Server {
			seed.Server[i] = -1
		}
		for _, pr := range matched {
			orig := canon.Perm[pr[1]]
			seed.Server[orig] = e.Server[pr[0]]
			seed.Alloc[orig] = e.Alloc[pr[0]]
		}
		return seed, true
	}
	return core.WarmSeed{}, false
}

// assignmentJSON is aaserve's wire response for an engine response.
func assignmentJSON(in *core.Instance, resp *engine.Response) instio.AssignmentJSON {
	bound := resp.Bound
	if math.IsNaN(bound) {
		bound = core.SuperOptimal(in).Total
	}
	return instio.AssignmentJSON{Server: resp.Assignment.Server, Alloc: resp.Assignment.Alloc, Utility: resp.Utility, Bound: bound}
}

// encode times aaserve's /solve response encoding (json.Encoder with
// two-space indent). instio.EncodeAssignment is not used: it recomputes
// the super-optimal bound, which the server does not.
func (l *layers) encode(parent, req int, a instio.AssignmentJSON) error {
	var buf bytes.Buffer
	t0 := time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(a)
	l.rec.add("edge.encode", parent, req, t0, time.Now())
	return err
}

// encodeElement times the streaming batch's per-element encoding
// (MarshalIndent at one indent level).
func (l *layers) encodeElement(parent, req int, a instio.AssignmentJSON) error {
	t0 := time.Now()
	_, err := json.MarshalIndent(a, "  ", "  ")
	l.rec.add("edge.encode", parent, req, t0, time.Now())
	return err
}

// lambdaIters is the mean λ-search iteration count per cold solve.
func (l *layers) lambdaIters() float64 {
	if l.superopts == 0 {
		return 0
	}
	return float64(l.iters) / float64(l.superopts)
}
