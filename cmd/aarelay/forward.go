package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"aa/internal/cache"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/router"
	"aa/internal/serveutil"
	"aa/internal/telemetry"
)

// Relay telemetry (aa_relay_*). Registered eagerly so /metrics shows
// them at zero before the first request.
var (
	metricRequests    = telemetry.Default.Counter("aa_relay_requests_total")
	metricRateLimited = telemetry.Default.Counter("aa_relay_rate_limited_total")
	metricFailovers   = telemetry.Default.Counter("aa_relay_failovers_total")

	stageForward = telemetry.NewStage("relay.forward", nil)
)

// admit accepts a POST (usage is the 405's hint), counts it, and applies
// the per-client token bucket; a false return means the 405 or the 429
// (with Retry-After) is already written.
func (rl *relay) admit(w http.ResponseWriter, r *http.Request, usage string) bool {
	if r.Method != http.MethodPost {
		http.Error(w, usage, http.StatusMethodNotAllowed)
		return false
	}
	metricRequests.Inc()
	if rl.limiter == nil {
		return true
	}
	key := r.RemoteAddr
	if host, _, err := net.SplitHostPort(key); err == nil {
		key = host // one bucket per client, not per connection
	}
	ok, wait := rl.limiter.Take(key)
	if ok {
		return true
	}
	metricRateLimited.Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(wait))
	http.Error(w, "rate limit exceeded, retry later", http.StatusTooManyRequests)
	return false
}

// retryAfterSeconds renders a wait as the integral seconds form of
// Retry-After, rounded up and never below 1 (a "0" invites an instant
// retry, defeating the limiter).
func retryAfterSeconds(wait time.Duration) string {
	s := int64(math.Ceil(wait.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// handleSolve routes one solve: admission, relay-cache lookup, then the
// failover forward loop. The request body is buffered up front — it is
// re-sent on every failover attempt and fingerprinted for the cache.
func (rl *relay) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !rl.admit(w, r, "POST an instance (see internal/instio for the JSON format)") {
		return
	}
	if !serveutil.LimitBody(w, r, rl.maxBodyBytes, "-max-body-bytes", "body_too_large") {
		return
	}
	body, err := readBody(r)
	if err != nil {
		if !serveutil.TooLarge(w, err, "-max-body-bytes", "body_too_large") {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		}
		return
	}

	// Relay-side exact-hit cache: canonicalize with the cache's key and
	// answer byte-identically without touching a node. Uncacheable
	// requests (a query the node's parser rejects, bodies the scan
	// rejects, check=1, cache=bypass) fall through to forwarding — the
	// node is the authority on errors.
	ck, canon, cacheable := rl.cacheKey(r, body)
	if cacheable {
		if e, ok := rl.cache.Get(ck); ok {
			writeCachedAssignment(w, e, canon)
			return
		}
	}

	status, respBody, ok := rl.forwardSolve(w, r, body)
	if !ok {
		return // forwardSolve wrote the error
	}
	if cacheable && status == http.StatusOK {
		rl.storeResponse(ck, canon, respBody)
	}
}

// maxPrealloc caps the buffer a declared Content-Length sizes before
// any body bytes arrive. The declaration is the client's word, so it
// buys at most this much memory per connection up front; larger bodies
// grow as their bytes arrive. It is well above a typical /solve body
// (tens of KB for n=1000).
const maxPrealloc = 1 << 20

// readBody buffers a /solve body that serveutil.LimitBody has capped. A
// declared Content-Length (within the cap, or LimitBody would have
// rejected it) sizes the buffer up front, up to maxPrealloc, instead of
// growing it through the read.
func readBody(r *http.Request) ([]byte, error) {
	size := min(max(r.ContentLength, 0), maxPrealloc)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// forwardSolve runs the failover loop: pick a node, forward, and on
// transport errors (node marked down, routing reacts immediately) or
// backpressure (429: the engine queue is full; 503: the node is
// draining) move to the next node. Success pipes the node's response —
// whatever its status — through unchanged and returns it for caching.
func (rl *relay) forwardSolve(w http.ResponseWriter, r *http.Request, body []byte) (int, []byte, bool) {
	exclude := make(map[string]bool)
	sawBusy := false
	attempts := 0
	for {
		node, err := rl.rt.Pick(exclude)
		if err != nil {
			// Every node tried or unready. All-busy is backpressure the
			// client can retry; otherwise the cluster is unreachable.
			if sawBusy {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "all nodes at capacity, retry later", http.StatusTooManyRequests)
			} else {
				http.Error(w, "no ready nodes", http.StatusBadGateway)
			}
			return 0, nil, false
		}
		if attempts > 0 {
			metricFailovers.Inc()
		}
		attempts++
		resp, err := rl.forwardOnce(r, node, body)
		rl.rt.Done(node.Addr)
		if err != nil {
			rl.rt.ObserveFailure(node.Addr)
			exclude[node.Addr] = true
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			// engine.ErrQueueFull surfaced as the node's 429: the relay's
			// backpressure/load signal. Spill to the next node.
			drainBody(resp)
			exclude[node.Addr] = true
			sawBusy = true
			continue
		case http.StatusServiceUnavailable:
			// The node is draining behind our probe's back.
			drainBody(resp)
			exclude[node.Addr] = true
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rl.rt.ObserveFailure(node.Addr)
			exclude[node.Addr] = true
			continue
		}
		copyResponseHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		return resp.StatusCode, respBody, true
	}
}

// forwardOnce sends one attempt to node under a relay.forward span.
func (rl *relay) forwardOnce(r *http.Request, node router.Node, body []byte) (*http.Response, error) {
	ctx, sp := stageForward.Start(r.Context())
	defer sp.End()
	sp.Str("node", node.Name)
	sp.Str("addr", node.Addr)
	req, err := upstream(ctx, r, node, "/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := rl.client.Do(req)
	if resp != nil {
		sp.Int("status", resp.StatusCode)
	}
	sp.Bool("ok", err == nil)
	return resp, err
}

// upstream builds the request forwarding r's body to path on node, with
// r's query and Content-Type. It propagates the request ID and ctx's
// trace context (the relay's http.request span — or, traced, a
// per-attempt relay.forward child) so one client request is one
// connected trace tree across relay and nodes.
func upstream(ctx context.Context, r *http.Request, node router.Node, path string, body io.Reader) (*http.Request, error) {
	url := "http://" + node.Addr + path
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := r.Header.Get(serveutil.HeaderRequestID); id != "" {
		req.Header.Set(serveutil.HeaderRequestID, id)
	}
	if sc := telemetry.SpanFromContext(ctx); sc.Valid() {
		req.Header.Set(serveutil.HeaderTraceparent, sc.Traceparent())
	}
	return req, nil
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// copyResponseHeaders forwards the node's response headers, keeping the
// relay's own traceparent/request ID (already set by the observability
// layer) authoritative for the client.
func copyResponseHeaders(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		switch http.CanonicalHeaderKey(k) {
		case serveutil.HeaderRequestID, http.CanonicalHeaderKey(serveutil.HeaderTraceparent):
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
}

// cacheKey derives the relay cache key for a /solve request, or reports
// it uncacheable. The query goes through the node's own parser
// (engine.ParseQuery) and key rule (engine.KeyParams), so a request a
// node would reject is never answered from the cache; the instance part
// is the keyed fingerprint of the body's wire form
// (cache.CanonicalizeWire). A cache=bypass request is counted as a
// bypass.
func (rl *relay) cacheKey(r *http.Request, body []byte) (cache.Key, *cache.Canonical, bool) {
	if rl.cache.Mode() == cache.ModeOff {
		return cache.Key{}, nil, false
	}
	var req engine.Request
	if _, err := engine.ParseQuery(r.URL.Query(), &req); err != nil || req.Check {
		return cache.Key{}, nil, false
	}
	if req.NoCache {
		rl.cache.NoteBypass()
		return cache.Key{}, nil, false
	}
	p, ok := engine.KeyParams(&req)
	canon, err := cache.CanonicalizeWire(body, rl.cache.HashKey())
	if !ok || err != nil {
		return cache.Key{}, nil, false
	}
	return cache.RequestKey(canon.Fingerprint(), p), canon, true
}

// storeResponse parses a node's 200 response and stores it in canonical
// thread order under key. Responses that do not parse as an assignment
// of the right arity are silently not cached.
func (rl *relay) storeResponse(key cache.Key, canon *cache.Canonical, respBody []byte) {
	a, err := instio.DecodeAssignment(respBody)
	if err != nil {
		return
	}
	n := len(canon.Perm)
	if len(a.Server) != n || len(a.Alloc) != n {
		return
	}
	e := &cache.Entry{
		Canon:      canon,
		Utility:    a.Utility,
		AltUtility: math.NaN(),
		Bound:      a.Bound,
	}
	e.Server, e.Alloc = canon.ToCanonical(a.Server, a.Alloc)
	// Lambda stays 0: relay entries are exact-hit only, never
	// warm-start seeds (the relay has no solver to repair with).
	rl.cache.Put(key, 0, e)
}

// writeCachedAssignment serves a cache hit byte-identically to the
// populating node response: the canonical assignment is un-permuted
// through this request's own Perm and re-encoded with aaserve's own
// codec — its shortest-round-trip floats make decode→re-encode
// byte-stable, which the relay smoke pins end to end.
func writeCachedAssignment(w http.ResponseWriter, e *cache.Entry, canon *cache.Canonical) {
	n := len(canon.Perm)
	out := instio.AssignmentJSON{
		Server:  make([]int, n),
		Alloc:   make([]float64, n),
		Utility: e.Utility,
		Bound:   e.Bound,
	}
	canon.FromCanonical(out.Server, out.Alloc, e.Server, e.Alloc)
	// Stored values came from a node's encoded answer, so they are finite.
	buf, _ := instio.AppendAssignment(nil, out, "")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(buf, '\n'))
}

// handleBatch streams /solve/batch through a single node. No mid-stream
// failover: the request body is consumed as it forwards, so a node loss
// mid-batch aborts the connection (the client sees a truncated body,
// never a fabricated success) rather than replaying a half-read stream.
func (rl *relay) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !rl.admit(w, r, "POST a JSON array of instances") {
		return
	}
	node, err := rl.rt.Pick(nil)
	if err != nil {
		http.Error(w, "no ready nodes", http.StatusBadGateway)
		return
	}
	defer rl.rt.Done(node.Addr)

	// The node streams its response while still reading our forwarded
	// body; full duplex keeps the relay from closing the upstream read.
	_ = http.NewResponseController(w).EnableFullDuplex()
	req, err := upstream(r.Context(), r, node, "/solve/batch", r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := rl.client.Do(req)
	if err != nil {
		rl.rt.ObserveFailure(node.Addr)
		http.Error(w, fmt.Sprintf("forwarding batch: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyResponseHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	if err := flushCopy(w, resp.Body); err != nil {
		// Bytes are on the wire; aborting the connection is the only
		// honest signal left (same contract as the node's own streamer).
		panic(http.ErrAbortHandler)
	}
}

// flushCopy copies src to w, flushing after every chunk so batch
// elements reach the client as the node produces them.
func flushCopy(w http.ResponseWriter, src io.Reader) error {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			_ = rc.Flush()
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// handleNodes reports the router's node-set snapshot.
func (rl *relay) handleNodes(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Nodes []router.NodeStatus `json:"nodes"`
	}{rl.rt.Snapshot()})
}

// handleBackends proxies the registry listing from the first ready node
// (every node runs the same binary, so any node's answer is canonical).
func (rl *relay) handleBackends(w http.ResponseWriter, r *http.Request) {
	exclude := make(map[string]bool)
	for {
		node, err := rl.rt.Pick(exclude)
		if err != nil {
			http.Error(w, "no ready nodes", http.StatusBadGateway)
			return
		}
		resp, err := rl.client.Get("http://" + node.Addr + "/backends")
		rl.rt.Done(node.Addr)
		if err != nil {
			rl.rt.ObserveFailure(node.Addr)
			exclude[node.Addr] = true
			continue
		}
		defer resp.Body.Close()
		copyResponseHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
}
