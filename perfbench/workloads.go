package main

// The four workloads and their shared run loop. A run splits each HTTP
// workload's script into slices; each slice gets a freshly started and
// warmed deployment (its set-up time is one setup_s sample), is served
// in a closed loop over one connection, and its deployment is stopped
// before the next slice starts. Medians over slices damp the
// differences between server processes. A traced run (--trace 1)
// repeats all of it with the in-process layer replay after every
// request. Outputs are checked after each slice's timed window, so
// checking never competes with the servers for the CPUs.
//
// Why these four:
//
//   - solve-small: fixed per-request costs (HTTP, decode/encode, queue
//     handoff) dominate a small solve; an edge or engine change shows
//     here and a core change barely should.
//   - batch-stream: the streaming batch handler decodes serially while
//     workers solve in parallel, so per-thread decode sets throughput,
//     and server memory is bounded by the stream window.
//   - churn-relay: the only workload through aarelay, both cache tiers
//     and the warm-start repair; the other three bypass every cache,
//     so a cache change should leave them unchanged.
//   - replay-fleet: no edge layer at all; the only place internal/online
//     runs, and every re-solve takes the parallel Assign2 path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/online"
	"aa/internal/replay"
	"aa/internal/utility"
)

// slices is how many deployments an HTTP workload's script is split
// across; setup_s, latency_p50_ms, threads_per_s and server_rss_mb are
// medians over them.
const slices = 5

// fleetRuns is how many times replay-fleet runs aareplay; each run is
// one set-up, and the metrics are medians over runs.
const fleetRuns = 5

// fleetHorizonPerSecond sizes the fleet scenario's virtual horizon:
// about 0.25 arrivals per virtual second, one re-solve each, ~0.17 s of
// wall time per event at 10⁵ threads on a 2-core box, over fleetRuns
// runs.
const fleetHorizonPerSecond = 3.6

var bg = context.Background()

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, info: map[string]any{}}
}

// deployment is one set of running servers plus the client that drives
// them.
type deployment struct {
	servers []*server
	client  *http.Client
}

func (d *deployment) stop() {
	d.client.CloseIdleConnections()
	stopAll(d.servers)
}

// rssMB is the summed peak RSS of the stopped servers.
func (d *deployment) rssMB() float64 {
	var kb int64
	for _, s := range d.servers {
		kb += s.rssKB
	}
	return float64(kb) / 1024
}

// postOK sends a request that must succeed.
func postOK(c *http.Client, url string, body []byte) ([]byte, error) {
	st, b, err := post(bg, c, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", url, st, b)
	}
	return b, nil
}

// pass is one closed-loop run of a request script slice.
type pass struct {
	lat  []float64 // round-trip ms per request
	resp [][]byte  // response bodies; nil for a failed request
	errs map[int]string
	wall time.Duration
}

// runPass sends requests lo..hi-1 in a closed loop over one connection;
// index k of the result is request lo+k. after, on traced passes,
// replays request i in process once its round trip [t0, t1] is done.
func runPass(lo, hi int, send func(i int) (int, []byte, error), after func(i int, t0, t1 time.Time, resp []byte) error) *pass {
	n := hi - lo
	p := &pass{lat: make([]float64, n), resp: make([][]byte, n), errs: map[int]string{}}
	start := time.Now()
	for k := 0; k < n; k++ {
		i := lo + k
		t0 := time.Now()
		st, body, err := send(i)
		t1 := time.Now()
		p.lat[k] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		switch {
		case err != nil:
			p.errs[k] = err.Error()
			continue
		case st != http.StatusOK:
			p.errs[k] = fmt.Sprintf("status %d: %.200s", st, body)
			continue
		}
		p.resp[k] = body
		if after != nil {
			if err := after(i, t0, t1, body); err != nil {
				p.errs[k] = "traced replay: " + err.Error()
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

// sliceRun is one deployment's share of a run.
type sliceRun struct {
	setup   float64 // seconds from first spawn to end of warm-up
	pass    *pass
	threads int // threads solved in the pass
	rssMB   float64
}

// stopper is a running deployment.
type stopper interface {
	stop()
	rssMB() float64
}

// runSlices deploys, serves and stops one deployment per slice in turn.
// serve runs slice s's pass and any checks that need the live servers.
func runSlices[D stopper](deploy func(s int) (D, error), serve func(s int, d D) (*pass, int, error)) ([]sliceRun, error) {
	runs := make([]sliceRun, slices)
	for s := range runs {
		t0 := time.Now()
		d, err := deploy(s)
		if err != nil {
			return nil, err
		}
		runs[s].setup = time.Since(t0).Seconds()
		runs[s].pass, runs[s].threads, err = serve(s, d)
		d.stop()
		if err != nil {
			return nil, err
		}
		runs[s].rssMB = d.rssMB()
	}
	return runs, nil
}

// sliceRange returns the script range slice s of n requests covers.
func sliceRange(s, n int) (lo, hi int) { return s * n / slices, (s + 1) * n / slices }

// e2e computes the end-to-end metrics of an untraced run.
func e2e(out *outcome, runs []sliceRun, utilityRatio float64) map[string]metric {
	var p50, tput, rss, setup []float64
	for _, r := range runs {
		p50 = append(p50, median(r.pass.lat))
		tput = append(tput, float64(r.threads)/r.pass.wall.Seconds())
		rss = append(rss, r.rssMB)
		setup = append(setup, r.setup)
	}
	// The p99 is reported here only: the contract metrics must exist on
	// every workload, and batch-stream and replay-fleet have too few
	// round trips for ten of them to lie beyond a p99.
	all := latencies(runs)
	p99 := quantile(all, 0.99)
	beyond := 0
	for _, x := range all {
		if x > p99 {
			beyond++
		}
	}
	out.info["latency"] = map[string]any{"samples": len(all), "p99_ms": p99, "beyond_p99": beyond,
		"slice_p50_ms": p50, "pooled_p50_ms": median(all), "mean_ms": mean(all)}
	out.info["slices"] = map[string]any{"setup_s": setup, "threads_per_s": tput, "server_rss_mb": rss}
	return map[string]metric{
		"latency_p50_ms": {median(p50), "ms"},
		"threads_per_s":  {median(tput), "1/s"},
		"utility_ratio":  {utilityRatio, "ratio"},
		"server_rss_mb":  {median(rss), "MB"},
		"setup_s":        {median(setup), "s"},
	}
}

// latencies pools a run's round trips.
func latencies(runs []sliceRun) []float64 {
	var all []float64
	for _, r := range runs {
		all = append(all, r.pass.lat...)
	}
	return all
}

// flatten joins a run's responses and transport or status errors in
// script order.
func flatten(runs []sliceRun) ([][]byte, []string) {
	var resp [][]byte
	var errs []string
	for _, r := range runs {
		for k := range r.pass.resp {
			resp = append(resp, r.pass.resp[k])
			errs = append(errs, r.pass.errs[k])
		}
	}
	return resp, errs
}

// verdict is one response's output check.
type verdict struct {
	ratio float64
	err   error
}

// cacheRatios are the per-layer cache metrics; zero on workloads whose
// servers run without a cache.
type cacheRatios struct{ hit, warm, miss, relayHit float64 }

// finish fills the contract metrics: end-to-end on an untraced run,
// per-layer on a traced one.
func finish(cfg *config, out *outcome, e map[string]metric, b *breakdown, l *layers, cr cacheRatios, untraced, traced []float64) {
	out.info["end_to_end"] = e
	if !cfg.trace {
		out.metrics = e
		return
	}
	set := out.set
	set("edge.decode_ms", "ms", b.mean("edge.decode"))
	set("edge.decode_alloc_kb", "KiB", l.decodeAllocKB/float64(max(b.roots, 1)))
	set("edge.encode_ms", "ms", b.mean("edge.encode"))
	set("engine.solve_ms", "ms", b.mean("engine.solve"))
	set("engine.queue_ms", "ms", b.selfMean("engine.submit"))
	set("cache.lookup_ms", "ms", b.mean("cache.lookup"))
	set("cache.hit_ratio", "ratio", cr.hit)
	set("cache.warm_ratio", "ratio", cr.warm)
	set("cache.miss_ratio", "ratio", cr.miss)
	set("relay.hit_ratio", "ratio", cr.relayHit)
	set("relay.lookup_ms", "ms", b.mean("relay.lookup"))
	set("relay.forward_ms", "ms", b.mean("relay.forward"))
	set("core.warm_ms", "ms", b.mean("core.warm"))
	set("core.superopt_ms", "ms", b.mean("core.superopt"))
	set("core.linearize_ms", "ms", b.mean("core.linearize"))
	set("core.assign2_ms", "ms", b.mean("core.assign2"))
	set("core.lambda_iters", "count", l.lambdaIters())
	set("online.react_ms", "ms", b.mean("online.react"))
	set("online.utility_ms", "ms", b.mean("online.utility"))
	set("unaccounted_frac", "ratio", b.unaccounted())
	set("trace_overhead_ms", "ms", median(traced)-median(untraced))
	out.info["layer_self_ms"] = b.selfTable()
	out.info["traced_latency"] = map[string]any{"p50_ms": median(traced), "mean_ms": mean(traced), "root_mean_ms": b.rootMs / float64(max(b.roots, 1))}
}

// sameResponses checks that a traced slice got byte-identical answers
// to the untraced slice of the same script: every solve is
// deterministic.
func sameResponses(out *outcome, name string, p, tp *pass) {
	for k := range tp.resp {
		if msg, bad := tp.errs[k]; bad {
			out.fail("%s traced request %d: %s", name, k, msg)
		} else if p.resp[k] != nil && !bytes.Equal(p.resp[k], tp.resp[k]) {
			out.fail("%s traced request %d: response differs from the untraced pass", name, k)
		}
	}
}

// ---- solve-small --------------------------------------------------------

func runSolveSmall(cfg *config) (*outcome, error) {
	warm, timed := smallScript(cfg.seed, cfg.seconds)
	out := newOutcome()
	deploy := func(int) (*deployment, error) {
		s, err := spawn(cfg, "aaserve", "-workers", strconv.Itoa(cfg.procs), "-cache", "off")
		if err != nil {
			return nil, err
		}
		d := &deployment{servers: []*server{s}, client: newClient()}
		for _, b := range warm {
			if _, err := postOK(d.client, "http://"+s.addr+"/solve", b); err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return d, nil
	}
	serve := func(after func(int, time.Time, time.Time, []byte) error) func(int, *deployment) (*pass, int, error) {
		return func(s int, d *deployment) (*pass, int, error) {
			url := "http://" + d.servers[0].addr + "/solve"
			lo, hi := sliceRange(s, len(timed))
			p := runPass(lo, hi, func(i int) (int, []byte, error) {
				return post(bg, d.client, url, bytes.NewReader(timed[i]))
			}, after)
			return p, (hi - lo) * smallN, nil
		}
	}
	runs, err := runSlices(deploy, serve(nil))
	if err != nil {
		return nil, err
	}
	out.attempted = len(timed)
	resp, errs := flatten(runs)
	verdicts := make([]verdict, len(resp))
	parallel(len(resp), func(i int) {
		if resp[i] != nil {
			verdicts[i].ratio, verdicts[i].err = verifyAssignment(smallInstance(cfg.seed, false, i), resp[i])
		}
	})
	var ratios []float64
	for i, v := range verdicts {
		switch {
		case errs[i] != "":
			out.fail("solve-small request %d: %s", i, errs[i])
		case v.err != nil:
			out.fail("solve-small request %d: %v", i, v.err)
		default:
			ratios = append(ratios, v.ratio)
		}
	}
	e := e2e(out, runs, mean(ratios))
	if !cfg.trace {
		finish(cfg, out, e, nil, nil, cacheRatios{}, nil, nil)
		return out, nil
	}

	rec := newRecorder()
	l := newLayers(rec, cfg.procs, nil, 0)
	defer l.close()
	truns, err := runSlices(deploy, serve(func(i int, t0, t1 time.Time, resp []byte) error {
		root := rec.add("client.request", 0, i, t0, t1)
		in, err := l.decode(root, i, timed[i], nil)
		if err != nil {
			return err
		}
		r, err := l.solve(root, i, in, false, nodeCold, true)
		if err != nil {
			return err
		}
		return l.encode(root, i, assignmentJSON(in, r))
	}))
	if err != nil {
		return nil, err
	}
	out.attempted += len(timed)
	for s := range truns {
		sameResponses(out, "solve-small", runs[s].pass, truns[s].pass)
	}
	out.spans = rec
	finish(cfg, out, e, rec.breakdown("client.request"), l, cacheRatios{}, latencies(runs), latencies(truns))
	return out, nil
}

// ---- batch-stream -------------------------------------------------------

func runBatchStream(cfg *config) (*outcome, error) {
	pool, batches := batchScript(cfg.seed, cfg.seconds)
	out := newOutcome()
	warmBody := batchBody(pool, []int{0})
	deploy := func(int) (*deployment, error) {
		s, err := spawn(cfg, "aaserve", "-workers", strconv.Itoa(cfg.procs), "-cache", "off")
		if err != nil {
			return nil, err
		}
		d := &deployment{servers: []*server{s}, client: newClient()}
		if _, err := postOK(d.client, "http://"+s.addr+"/solve/batch", warmBody); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return d, nil
	}
	// One batch element, re-solved alone through /solve on the first
	// deployment, must give the same assignment.
	probe := batches[0][0]
	var single []byte
	var singleErr error
	serve := func(after func(int, time.Time, time.Time, []byte) error) func(int, *deployment) (*pass, int, error) {
		return func(s int, d *deployment) (*pass, int, error) {
			addr := d.servers[0].addr
			lo, hi := sliceRange(s, len(batches))
			p := runPass(lo, hi, func(i int) (int, []byte, error) {
				return post(bg, d.client, "http://"+addr+"/solve/batch", bytes.NewReader(batchBody(pool, batches[i])))
			}, after)
			if s == 0 && after == nil {
				single, singleErr = postOK(d.client, "http://"+addr+"/solve", pool[probe])
			}
			return p, (hi - lo) * batchSize * batchN, nil
		}
	}
	runs, err := runSlices(deploy, serve(nil))
	if err != nil {
		return nil, err
	}
	out.attempted = len(batches)*batchSize + 1
	elems, ratios := checkBatches(out, cfg.seed, pool, batches, runs)
	switch {
	case singleErr != nil:
		out.fail("batch-stream single /solve: %v", singleErr)
	case elems[probe] == nil:
		out.fail("batch-stream: element %d never answered", probe)
	case !compactEqual(elems[probe], single):
		out.fail("batch-stream: element %d differs from its single /solve answer", probe)
	}
	e := e2e(out, runs, mean(ratios))
	if !cfg.trace {
		finish(cfg, out, e, nil, nil, cacheRatios{}, nil, nil)
		return out, nil
	}

	rec := newRecorder()
	l := newLayers(rec, cfg.procs, nil, 0)
	defer l.close()
	truns, err := runSlices(deploy, serve(func(i int, t0, t1 time.Time, resp []byte) error {
		root := rec.add("client.request", 0, i, t0, t1)
		dec := json.NewDecoder(bytes.NewReader(batchBody(pool, batches[i])))
		if _, err := dec.Token(); err != nil {
			return err
		}
		for dec.More() {
			in, err := l.decode(root, i, nil, dec)
			if err != nil {
				return err
			}
			r, err := l.solve(root, i, in, false, nodeCold, true)
			if err != nil {
				return err
			}
			if err := l.encodeElement(root, i, assignmentJSON(in, r)); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	out.attempted += len(batches) * batchSize
	for s := range truns {
		sameResponses(out, "batch-stream", runs[s].pass, truns[s].pass)
	}
	out.spans = rec
	finish(cfg, out, e, rec.breakdown("client.request"), l, cacheRatios{}, latencies(runs), latencies(truns))
	return out, nil
}

// checkBatches verifies every batch response: each must be exactly the
// streaming framing of its elements, and each distinct element (the
// same pool instance always gets the same bytes) must pass the
// assignment checks. It returns the element bytes per pool index and
// the F/F̂ ratio of every answered element.
func checkBatches(out *outcome, seed uint64, pool [][]byte, batches [][]int, runs []sliceRun) ([][]byte, []float64) {
	elems := make([][]byte, len(pool))
	verified := make([]float64, len(pool)) // -1 = failed its check
	checked := make([]bool, len(pool))
	var ratios []float64
	for s, r := range runs {
		lo, _ := sliceRange(s, len(batches))
		for k, resp := range r.pass.resp {
			b, picks := lo+k, batches[lo+k]
			if msg, bad := r.pass.errs[k]; bad {
				out.failN(len(picks), "batch %d: %s", b, msg)
				continue
			}
			var raw []json.RawMessage
			if err := json.Unmarshal(resp, &raw); err != nil || len(raw) != len(picks) {
				out.failN(len(picks), "batch %d: %d elements for %d instances (%v)", b, len(raw), len(picks), err)
				continue
			}
			var want bytes.Buffer
			for j, pi := range picks {
				if elems[pi] == nil {
					elems[pi] = append([]byte(nil), raw[j]...)
				}
				want.WriteString([]string{"[\n  ", ",\n  "}[min(j, 1)])
				want.Write(elems[pi])
			}
			want.WriteString("\n]\n")
			if !bytes.Equal(want.Bytes(), resp) {
				out.failN(len(picks), "batch %d: response is not the streaming framing of its elements' first answers", b)
				continue
			}
			for _, pi := range picks {
				if !checked[pi] {
					checked[pi] = true
					ratio, err := verifyAssignment(batchInstance(seed, pi), elems[pi])
					if err != nil {
						out.fail("batch element %d: %v", pi, err)
						verified[pi] = -1
						continue
					}
					verified[pi] = ratio
				}
				if verified[pi] < 0 {
					out.fail("batch %d: element %d failed its check", b, pi)
					continue
				}
				ratios = append(ratios, verified[pi])
			}
		}
	}
	return elems, ratios
}

// ---- churn-relay --------------------------------------------------------

// relayKeySecret keys the relay's shared-cache fingerprints, so the
// in-process relay lookup hashes exactly as the relay does.
const relayKeySecret = "perfbench"

var (
	nodeCounters  = []string{"aa_cache_hits_total", "aa_cache_misses_total", "aa_cache_warm_starts_total", "aa_cache_stores_total", "aa_cache_evictions_total"}
	relayCounters = []string{"aa_cache_hits_total", "aa_cache_misses_total", "aa_cache_stores_total", "aa_cache_evictions_total"}
)

// churnDeployment is a relay in front of one node, plus (traced runs) a
// shadow node that receives the same forwarded requests directly.
type churnDeployment struct {
	*deployment
	node, relay, shadow *server
}

// counts reads the cache counters of a server as cacheCounts.
func counts(addr string, names []string) (cacheCounts, error) {
	m, err := scrape(addr, names...)
	if err != nil {
		return cacheCounts{}, err
	}
	if m["aa_cache_evictions_total"] != 0 {
		return cacheCounts{}, fmt.Errorf("%s evicted %v cache entries; the script sizes caches to never evict", addr, m["aa_cache_evictions_total"])
	}
	return cacheCounts{Hits: int(m["aa_cache_hits_total"]), Misses: int(m["aa_cache_misses_total"]),
		Warm: int(m["aa_cache_warm_starts_total"]), Stores: int(m["aa_cache_stores_total"])}, nil
}

func (c cacheCounts) plus(o cacheCounts) cacheCounts {
	return cacheCounts{c.Hits + o.Hits, c.Misses + o.Misses, c.Warm + o.Warm, c.Stores + o.Stores}
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.Hits - o.Hits, c.Misses - o.Misses, c.Warm - o.Warm, c.Stores - o.Stores}
}

// bothCounts scrapes the relay's and the node's cache counters.
func bothCounts(d *churnDeployment) (relay, node cacheCounts, err error) {
	relay, err1 := counts(d.relay.addr, relayCounters)
	node, err2 := counts(d.node.addr, nodeCounters)
	return relay, node, errors.Join(err1, err2)
}

func runChurnRelay(cfg *config) (*outcome, error) {
	rounds := churnRounds * cfg.seconds / slices
	scripts := make([]*churnScript, slices)
	parallel(slices, func(s int) { scripts[s] = newChurnScript(cfg.seed, s, rounds) })
	out := newOutcome()
	var problems []string
	deploy := func(withShadow bool) func(s int) (*churnDeployment, error) {
		return func(s int) (*churnDeployment, error) {
			sc := scripts[s]
			// Both caches hold 8× the distinct keys: the LRU bound is
			// per shard (8 shards), so this rules out eviction however
			// keys hash.
			size := strconv.Itoa(8 * (sc.distinctKeys() + 1))
			nodeArgs := []string{"-workers", strconv.Itoa(cfg.procs), "-cache", "memory", "-cache-size", size,
				"-cache-ttl", "0", "-cache-warm-k", strconv.Itoa(churnWarmK)}
			node, err := spawn(cfg, "aaserve", nodeArgs...)
			if err != nil {
				return nil, err
			}
			d := &churnDeployment{deployment: &deployment{servers: []*server{node}, client: newClient()}, node: node}
			fail := func(err error) (*churnDeployment, error) { d.stop(); return nil, err }
			relay, err := spawn(cfg, "aarelay", "-nodes", node.addr, "-cache", "shared", "-cache-size", size,
				"-cache-ttl", "0", "-cache-key", relayKeySecret)
			if err != nil {
				return fail(err)
			}
			d.relay = relay
			d.servers = append(d.servers, relay)
			if withShadow {
				if d.shadow, err = spawn(cfg, "aaserve", nodeArgs...); err != nil {
					return fail(err)
				}
				d.servers = append(d.servers, d.shadow)
			}
			for i := range sc.prefill {
				if _, err := postOK(d.client, "http://"+relay.addr+"/solve", sc.prefill[i].body); err != nil {
					return fail(fmt.Errorf("prefill: %w", err))
				}
				if withShadow {
					if _, err := postOK(d.client, "http://"+d.shadow.addr+"/solve", sc.prefill[i].body); err != nil {
						return fail(fmt.Errorf("shadow prefill: %w", err))
					}
				}
			}
			rc, nc, err := bothCounts(d)
			if err != nil {
				return fail(err)
			}
			if rc != sc.prefillRelay || nc != sc.prefillNode {
				problems = append(problems, fmt.Sprintf("slice %d prefill counters relay %+v node %+v, script predicts relay %+v node %+v", s, rc, nc, sc.prefillRelay, sc.prefillNode))
			}
			return d, nil
		}
	}
	send := func(d *churnDeployment, sc *churnScript) func(int) (int, []byte, error) {
		return func(i int) (int, []byte, error) {
			r := &sc.timed[i]
			return post(bg, d.client, "http://"+d.relay.addr+"/solve"+r.query(), bytes.NewReader(r.body))
		}
	}

	var relayDelta, nodeDelta, relayWant, nodeWant cacheCounts
	direct := make([]map[int][]byte, slices)
	runs, err := runSlices(deploy(false), func(s int, d *churnDeployment) (*pass, int, error) {
		sc := scripts[s]
		r0, n0, err := bothCounts(d)
		if err != nil {
			return nil, 0, err
		}
		p := runPass(0, len(sc.timed), send(d, sc), nil)
		r1, n1, err := bothCounts(d)
		if err != nil {
			return nil, 0, err
		}
		relayDelta, nodeDelta = relayDelta.plus(r1.minus(r0)), nodeDelta.plus(n1.minus(n0))
		relayWant, nodeWant = relayWant.plus(sc.relay), nodeWant.plus(sc.node)
		// Relay-served answers must be the bytes the node serves for the
		// same request (the node answers them from its own cache).
		direct[s] = map[int][]byte{}
		for i := range sc.timed {
			if r := &sc.timed[i]; r.kind == kindRepeat && p.resp[i] != nil {
				b, err := postOK(d.client, "http://"+d.node.addr+"/solve", r.body)
				if err != nil {
					problems = append(problems, fmt.Sprintf("slice %d request %d node-direct: %v", s, i, err))
					continue
				}
				direct[s][i] = b
			}
		}
		return p, len(sc.timed) * churnN, nil
	})
	if err != nil {
		return nil, err
	}

	for _, p := range problems {
		out.fail("%s", p)
	}
	if relayDelta != relayWant || nodeDelta != nodeWant {
		out.fail("timed-window cache counters relay %+v node %+v, script predicts relay %+v node %+v", relayDelta, nodeDelta, relayWant, nodeWant)
	}
	var ratios []float64
	byKind := map[string][]float64{}
	for s, run := range runs {
		sc := scripts[s]
		out.attempted += len(sc.timed)
		verdicts := make([]verdict, len(sc.timed))
		parallel(len(sc.timed), func(i int) {
			if run.pass.resp[i] != nil {
				verdicts[i].ratio, verdicts[i].err = verifyAssignment(sc.instance(&sc.timed[i]), run.pass.resp[i])
			}
		})
		for i := range sc.timed {
			r := &sc.timed[i]
			byKind[string(r.kind)] = append(byKind[string(r.kind)], run.pass.lat[i])
			if msg, bad := run.pass.errs[i]; bad {
				out.fail("churn slice %d request %d (%c): %s", s, i, r.kind, msg)
				continue
			}
			if err := verdicts[i].err; err != nil {
				out.fail("churn slice %d request %d (%c): %v", s, i, r.kind, err)
				continue
			}
			if b, ok := direct[s][i]; ok && !bytes.Equal(b, run.pass.resp[i]) {
				out.fail("churn slice %d request %d: relay-served bytes differ from the node's", s, i)
				continue
			}
			ratios = append(ratios, verdicts[i].ratio)
		}
	}
	kinds := map[string]any{}
	for k, lat := range byKind {
		kinds[k] = map[string]float64{"p50_ms": median(lat), "p90_ms": quantile(lat, 0.9), "n": float64(len(lat))}
	}
	out.info["latency_by_kind"] = kinds
	out.info["cache_counters"] = map[string]any{"relay": relayDelta, "node": nodeDelta, "predicted_relay": relayWant, "predicted_node": nodeWant}
	e := e2e(out, runs, mean(ratios))
	gets := float64(nodeDelta.Hits + nodeDelta.Misses)
	cr := cacheRatios{
		hit:      float64(nodeDelta.Hits) / gets,
		warm:     float64(nodeDelta.Warm) / gets,
		miss:     float64(nodeDelta.Misses-nodeDelta.Warm) / gets,
		relayHit: float64(relayDelta.Hits) / float64(relayDelta.Hits+relayDelta.Misses),
	}
	if !cfg.trace {
		finish(cfg, out, e, nil, nil, cr, nil, nil)
		return out, nil
	}

	rec := newRecorder()
	var ls []*layers
	defer func() {
		for _, l := range ls {
			l.close()
		}
	}()
	relayCache, err := cache.New(cache.Config{Mode: cache.ModeShared, Key: cache.KeyFromString(relayKeySecret)})
	if err != nil {
		return nil, err
	}
	problems = nil
	truns, err := runSlices(deploy(true), func(s int, d *churnDeployment) (*pass, int, error) {
		sc := scripts[s]
		mk := func() cache.Cache {
			c, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 8 * (sc.distinctKeys() + 1)})
			if err != nil {
				panic(err) // a memory-mode config cannot be rejected
			}
			return c
		}
		l := newLayers(rec, cfg.procs, mk, churnWarmK)
		ls = append(ls, l)
		for i := range sc.prefill {
			if err := l.prefill(sc.instance(&sc.prefill[i])); err != nil {
				return nil, 0, err
			}
		}
		shadowURL := "http://" + d.shadow.addr + "/solve"
		p := runPass(0, len(sc.timed), send(d, sc), func(i int, t0, t1 time.Time, resp []byte) error {
			r := &sc.timed[i]
			req := s*len(sc.timed) + i
			root := rec.add("client.request", 0, req, t0, t1)
			if r.kind == kindRepeat {
				// Served by the relay from its cache: its lookup, then
				// re-encoding through the request's permutation.
				if err := l.relayLookup(root, req, r.body, relayCache); err != nil {
					return err
				}
				var a instio.AssignmentJSON
				if err := json.Unmarshal(resp, &a); err != nil {
					return err
				}
				return l.encode(root, req, a)
			}
			s0 := time.Now()
			shadow, err := postOK(d.client, shadowURL+r.query(), r.body)
			if err != nil {
				return fmt.Errorf("shadow node: %w", err)
			}
			fwd := rec.derived("relay.forward", root, req, t1.Sub(t0)-time.Since(s0))
			if !bytes.Equal(shadow, resp) {
				return errors.New("relay-forwarded bytes differ from the shadow node's")
			}
			if r.kind != kindCheck {
				if err := l.relayLookup(fwd, req, r.body, relayCache); err != nil {
					return err
				}
			}
			in, err := l.decode(root, req, r.body, nil)
			if err != nil {
				return err
			}
			res, err := l.solve(root, req, in, r.kind == kindCheck, r.node, true)
			if err != nil {
				return err
			}
			return l.encode(root, req, assignmentJSON(in, res))
		})
		return p, len(sc.timed) * churnN, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		out.fail("%s", p)
	}
	for s := range truns {
		out.attempted += len(scripts[s].timed)
		sameResponses(out, "churn-relay", runs[s].pass, truns[s].pass)
	}
	// λ-search iterations and decode allocations pool over the
	// per-slice replays.
	all := &layers{}
	for _, l := range ls {
		all.iters += l.iters
		all.superopts += l.superopts
		all.decodeAllocKB += l.decodeAllocKB
	}
	out.spans = rec
	finish(cfg, out, e, rec.breakdown("client.request"), all, cr, latencies(runs), latencies(truns))
	return out, nil
}

// ---- replay-fleet -------------------------------------------------------

// fleetReport is the part of an aareplay report the benchmark reads.
type fleetReport struct {
	Utility struct {
		Ratio float64 `json:"ratio"`
	} `json:"utility"`
	Solves struct {
		Resolves int `json:"resolves"`
		Failed   int `json:"failed"`
	} `json:"solves"`
	Wall struct {
		TotalSec    float64 `json:"totalSec"`
		SolveP50Sec float64 `json:"solveP50Sec"`
		SolveP99Sec float64 `json:"solveP99Sec"`
	} `json:"wall"`
}

// runAareplay runs aareplay once and returns its raw report, its wall
// time and its peak RSS. aareplay exits by itself, so its VmHWM is
// polled while it runs; the high-water mark only grows, and the last
// read before exit is kept.
func runAareplay(cfg *config, scPath, repPath string) ([]byte, float64, float64, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "aareplay"), "-scenario", scPath,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-out", repPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.procs))
	cmd.SysProcAttr = dieWithClient()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("aareplay: %w", err)
	}
	stopPoll := make(chan struct{})
	polled := make(chan int64)
	go func() {
		var kb int64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := peakRSSKB(cmd.Process.Pid); v > 0 {
				kb = v
			}
			select {
			case <-stopPoll:
				polled <- kb
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0).Seconds()
	close(stopPoll)
	rssMB := float64(<-polled) / 1024
	if err != nil {
		return nil, 0, 0, fmt.Errorf("aareplay: %v: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(repPath)
	return raw, wall, rssMB, err
}

func runReplayFleet(cfg *config) (*outcome, error) {
	out := newOutcome()
	dir, err := os.MkdirTemp(cfg.work, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	scPath := filepath.Join(dir, "scenario.json")
	scJSON, err := json.Marshal(fleetScenario(cfg.seconds))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(scPath, scJSON, 0o644); err != nil {
		return nil, err
	}
	sc, err := replay.Load(scPath)
	if err != nil {
		return nil, err
	}
	events, _, err := replay.Trace(sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Every event before the horizon triggers one full re-solve of the
	// threads present after it.
	wantResolves, threadsSolved := 0, 0
	live := map[int]bool{}
	for _, ev := range events {
		if ev.Time >= sc.Horizon {
			break
		}
		switch ev.Kind {
		case online.Arrive:
			live[ev.ID] = true
		case online.Depart:
			delete(live, ev.ID)
		case online.ArriveBatch:
			for _, b := range ev.Batch {
				live[b.ID] = true
			}
		}
		wantResolves++
		threadsSolved += len(live)
	}

	var setups, p50s, p99s, rss, tput []float64
	var canonical []byte
	var ratio float64
	for k := 0; k < fleetRuns; k++ {
		raw, wall, rssMB, err := runAareplay(cfg, scPath, filepath.Join(dir, fmt.Sprintf("report-%d.json", k)))
		if err != nil {
			return nil, err
		}
		var rep fleetReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("aareplay report: %w", err)
		}
		out.attempted += rep.Solves.Resolves
		if rep.Solves.Failed > 0 {
			out.failN(rep.Solves.Failed, "aareplay run %d: %d failed re-solves", k, rep.Solves.Failed)
		}
		if rep.Solves.Resolves != wantResolves {
			out.fail("aareplay run %d: %d re-solves, the trace has %d events", k, rep.Solves.Resolves, wantResolves)
		}
		if rep.Utility.Ratio < core.Alpha-1e-9 || rep.Utility.Ratio > 1+1e-9 {
			out.fail("aareplay run %d: ∫F/∫F̂ = %v outside [α, 1]", k, rep.Utility.Ratio)
		}
		// Runs of one seed must agree byte for byte outside "wall".
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, err
		}
		delete(m, "wall")
		c, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			canonical = c
		} else if !bytes.Equal(c, canonical) {
			out.fail("aareplay run %d: report differs from run 0 outside the wall section", k)
		}
		ratio = rep.Utility.Ratio
		// set-up is aareplay's wall time outside its simulation loop:
		// process start, scenario load, trace expansion, report writing.
		setups = append(setups, wall-rep.Wall.TotalSec)
		tput = append(tput, float64(threadsSolved)/rep.Wall.TotalSec)
		p50s = append(p50s, rep.Wall.SolveP50Sec*1000)
		p99s = append(p99s, rep.Wall.SolveP99Sec*1000)
		rss = append(rss, rssMB)
	}
	e := map[string]metric{
		"latency_p50_ms": {median(p50s), "ms"},
		"threads_per_s":  {median(tput), "1/s"},
		"utility_ratio":  {ratio, "ratio"},
		"server_rss_mb":  {median(rss), "MB"},
		"setup_s":        {median(setups), "s"},
	}
	out.info["latency"] = map[string]any{"samples_per_run": wantResolves, "runs": fleetRuns, "p50_ms_per_run": p50s, "p99_ms_per_run": p99s}
	out.info["runs"] = map[string]any{"setup_s": setups, "threads_per_s": tput, "server_rss_mb": rss, "threads_solved": threadsSolved}
	if !cfg.trace {
		finish(cfg, out, e, nil, nil, cacheRatios{}, nil, nil)
		return out, nil
	}

	rec := newRecorder()
	l := newLayers(rec, cfg.procs, nil, 0)
	defer l.close()
	// aareplay's full-resolve policy asks for the assignment only.
	l.request = func(in *core.Instance, _ bool) engine.Request { return engine.Request{Instance: in} }
	traced, err := tracedFleet(sc, events, rec, l)
	if err != nil {
		return nil, err
	}
	out.attempted += len(traced)
	out.spans = rec
	finish(cfg, out, e, rec.breakdown("replay.resolve"), l, cacheRatios{}, p50s, traced)
	return out, nil
}

// tracedFleet replays the fleet trace in process through the
// full-resolve policy on an engine configured like aareplay's, timing
// Policy.React and State.TotalUtility per event and the re-solve at the
// position aareplay's solve timer sits (caller middleware). After each
// React it replays the re-solved instance through engine.solve and the
// core stages. It returns the traced re-solve latencies in ms.
func tracedFleet(sc *replay.Scenario, events []online.Event, rec *recorder, l *layers) ([]float64, error) {
	var lat []float64
	var captured []utility.Func
	var capM int
	resolve := 0 // span id of this event's re-solve, 0 = none
	event := 0
	timer := func(next engine.Handler) engine.Handler {
		return func(ctx context.Context, req *engine.Request, resp *engine.Response) error {
			t0 := time.Now()
			err := next(ctx, req, resp)
			t1 := time.Now()
			lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
			resolve = rec.add("replay.resolve", 0, event, t0, t1)
			captured = append(captured[:0], req.Instance.Threads...)
			capM = req.Instance.M
			return err
		}
	}
	eng := engine.New(engine.Options{Middleware: []engine.Middleware{timer}})
	defer eng.Close()
	policy := &tracedPolicy{inner: online.FullResolve{Engine: eng}}
	var replayErr error
	policy.after = func(s *online.State, t0, t1 time.Time) {
		react := rec.add("online.react", 0, event, t0, t1)
		if resolve == 0 {
			return
		}
		rec.spans[resolve-1].Parent = react
		in := &core.Instance{M: capM, C: s.C, Threads: captured}
		if _, err := l.solve(resolve, event, in, false, nodeCold, false); err != nil && replayErr == nil {
			replayErr = err
		}
		resolve = 0
	}
	hook := func(info online.EventInfo, s *online.State) {
		t0 := time.Now()
		s.TotalUtility()
		rec.add("online.utility", 0, info.Index, t0, time.Now())
		event = info.Index + 1
	}
	if _, err := online.SimulateOpts(sc.Servers, sc.Capacity, events, policy, online.Options{Horizon: sc.Horizon, Hook: hook}); err != nil {
		return nil, err
	}
	return lat, replayErr
}

// tracedPolicy times an inner policy's React.
type tracedPolicy struct {
	inner online.Policy
	after func(s *online.State, t0, t1 time.Time)
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) React(s *online.State, ev online.Event) []int {
	t0 := time.Now()
	m := p.inner.React(s, ev)
	p.after(s, t0, time.Now())
	return m
}
