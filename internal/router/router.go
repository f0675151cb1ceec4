// Package router is the relay tier's node-set manager: it tracks a
// configured set of aaserve nodes, probes each one with GET /readyz
// (the status is the node's readiness, the AA-Queue-Depth header its
// load), and picks the least-loaded ready node per request. The router
// holds state, the relay holds the HTTP plumbing: forwarding, retries
// and backpressure mapping live in cmd/aarelay, which reports transport
// failures back here (ObserveFailure) so routing reacts faster than the
// next probe sweep.
package router

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aa/internal/serveutil"
	"aa/internal/telemetry"
)

// State is a node's routing eligibility.
type State string

// Node states. Only Ready nodes receive traffic.
const (
	// Ready nodes answer /readyz with 200 and take traffic.
	Ready State = "ready"
	// Draining nodes answered /readyz with 503: alive, finishing
	// in-flight work, taking nothing new. Probing continues (a
	// draining node's listener closes soon, moving it to Down).
	Draining State = "draining"
	// Down nodes failed their last probe or a forward at the transport
	// level. Probing continues; a succeeding /readyz restores Ready.
	Down State = "down"
)

// Node is one configured aaserve target.
type Node struct {
	// Name identifies the node in logs, metrics and Snapshot; defaults
	// to Addr when empty.
	Name string
	// Addr is the node's host:port.
	Addr string
}

// ErrNoNodes is returned by Pick when no ready node remains.
var ErrNoNodes = errors.New("router: no ready nodes")

// nodeInfo is a node plus its observed state, guarded by Router.mu.
type nodeInfo struct {
	Node
	state     State
	depth     int    // queue depth the last /readyz reported
	inflight  int    // relay requests currently forwarded here
	fails     uint64 // consecutive probe/transport failures
	lastProbe time.Time
}

// Router tracks the node set. Safe for concurrent use.
type Router struct {
	mu    sync.Mutex
	nodes []*nodeInfo

	// The aa_router_* counters, registered by New: a relay's /metrics
	// shows them at zero from startup, and a process that builds no
	// router does not show them.
	picks, failures, probes *telemetry.Counter

	client   *http.Client
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	probing  atomic.Bool
}

// New builds a router over nodes. Nodes start Ready — the first probe
// sweep corrects that within one interval, and starting Down would make
// a cold relay refuse traffic until the sweep even when every node is
// fine.
func New(nodes []Node) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("router: no nodes configured")
	}
	r := &Router{
		picks:    telemetry.Default.Counter("aa_router_picks_total"),
		failures: telemetry.Default.Counter("aa_router_node_failures_total"),
		probes:   telemetry.Default.Counter("aa_router_probes_total"),
		client:   &http.Client{Timeout: 2 * time.Second},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n.Addr == "" {
			return nil, errors.New("router: node with empty address")
		}
		if seen[n.Addr] {
			return nil, fmt.Errorf("router: duplicate node address %q", n.Addr)
		}
		seen[n.Addr] = true
		if n.Name == "" {
			n.Name = n.Addr
		}
		r.nodes = append(r.nodes, &nodeInfo{Node: n, state: Ready})
	}
	return r, nil
}

// Pick selects the least-loaded ready node for one request and counts
// it in flight until the matching Done call. A node's load is the queue
// depth its last /readyz reported plus the relay's own requests in
// flight to it: the in-flight term reacts at once, the probed term
// folds in load from other clients between sweeps. Ties go to
// configuration order. exclude lists addresses already tried for this
// request (the relay's failover loop); nil means none.
func (r *Router) Pick(exclude map[string]bool) (Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *nodeInfo
	for _, n := range r.nodes {
		if n.state != Ready || exclude[n.Addr] {
			continue
		}
		if best == nil || n.depth+n.inflight < best.depth+best.inflight {
			best = n
		}
	}
	if best == nil {
		return Node{}, ErrNoNodes
	}
	best.inflight++
	r.picks.Inc()
	return best.Node, nil
}

// Done releases the in-flight slot Pick counted against addr.
func (r *Router) Done(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.byAddr(addr); n != nil && n.inflight > 0 {
		n.inflight--
	}
}

// ObserveFailure marks addr Down after a transport-level forward
// failure (connection refused/reset, timeout). Transport failures are
// unambiguous — the node is unreachable now — so routing reacts
// immediately instead of waiting for the next probe sweep; the prober
// restores Ready as soon as /readyz answers 200 again. HTTP-level
// errors (429, 503) are NOT transport failures and must not come here:
// the relay handles those as backpressure/drain signals per request.
func (r *Router) ObserveFailure(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.byAddr(addr); n != nil {
		n.state = Down
		n.fails++
		r.failures.Inc()
	}
}

// byAddr finds a node; caller holds r.mu.
func (r *Router) byAddr(addr string) *nodeInfo {
	for _, n := range r.nodes {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}

// NodeStatus is one node's row in Snapshot (and the relay's /nodes).
type NodeStatus struct {
	Name      string    `json:"name"`
	Addr      string    `json:"addr"`
	State     State     `json:"state"`
	Depth     int       `json:"queueDepth"`
	InFlight  int       `json:"inFlight"`
	Failures  uint64    `json:"failures"`
	LastProbe time.Time `json:"lastProbe"`
}

// Snapshot reports every node's current status in configuration order.
func (r *Router) Snapshot() []NodeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStatus, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = NodeStatus{
			Name: n.Name, Addr: n.Addr,
			State: n.state, Depth: n.depth, InFlight: n.inflight,
			Failures: n.fails, LastProbe: n.lastProbe,
		}
	}
	return out
}

// ProbeNow sweeps every node synchronously with one GET /readyz each:
// 200 → Ready, any other status → Draining, a transport error → Down.
// The AA-Queue-Depth header of an answer sets the node's depth; a
// missing or malformed header reads as 0, so the load signal degrades
// to in-flight counts only rather than failing the node.
func (r *Router) ProbeNow() {
	r.mu.Lock()
	addrs := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		addrs[i] = n.Addr
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			r.probeOne(addr)
		}(addr)
	}
	wg.Wait()
}

func (r *Router) probeOne(addr string) {
	r.probes.Inc()
	state, depth := Down, 0
	if resp, err := r.client.Get("http://" + addr + "/readyz"); err == nil {
		resp.Body.Close()
		state = Ready
		if resp.StatusCode != http.StatusOK {
			state = Draining
		}
		depth, _ = strconv.Atoi(resp.Header.Get(serveutil.HeaderQueueDepth))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.byAddr(addr)
	if n == nil {
		return
	}
	n.state, n.depth, n.lastProbe = state, depth, time.Now()
	if state == Ready {
		n.fails = 0
	} else {
		n.fails++
	}
}

// StartProber probes every interval until Stop. interval <= 0 means 1s.
func (r *Router) StartProber(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	r.probing.Store(true)
	go func() {
		defer close(r.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.ProbeNow()
			}
		}
	}()
}

// Stop halts the prober started by StartProber and waits for it.
// Safe to call without StartProber and more than once.
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.probing.Load() {
		<-r.done
	}
}

// ParseNodes parses the relay's -nodes flag: a comma-separated list of
// host:port targets, each optionally prefixed "name=", e.g.
// "n1=10.0.0.1:8080,10.0.0.2:8080".
func ParseNodes(s string) ([]Node, error) {
	var nodes []Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, "*") {
			return nil, fmt.Errorf("router: node %q: node weights are gone (every node gets the least-loaded rule); drop the *weight suffix", part)
		}
		var n Node
		if name, rest, ok := strings.Cut(part, "="); ok {
			n.Name, part = strings.TrimSpace(name), strings.TrimSpace(rest)
		}
		n.Addr = part
		if n.Addr == "" {
			return nil, fmt.Errorf("router: node %q has no address", part)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, errors.New("router: empty node list")
	}
	return nodes, nil
}
