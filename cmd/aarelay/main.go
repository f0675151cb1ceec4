// Command aarelay fronts a set of aaserve nodes as one service: the
// cluster tier of ROADMAP item 1. It routes /solve and streaming
// /solve/batch to the least-loaded ready node, admits clients through
// per-client token buckets, probes every node with one GET /readyz per
// sweep (the status is its readiness, the AA-Queue-Depth header its
// queue depth), fails /solve over to the next node on transport errors
// and backpressure, and answers exact repeats from a relay-side cache
// keyed by the fingerprint of the body's validated wire form
// (cache.CanonicalizeWire), without decoding the instance, and by the
// query as the nodes parse it (engine.ParseQuery): a query a node
// rejects is never a cache hit. A /solve body over -max-body-bytes is
// the node's typed 413 (code body_too_large).
//
// Usage:
//
//	aarelay -nodes host1:8080,host2:8080[,...] [-addr localhost:8090]
//	        [-probe-interval 1s]
//	        [-rate 0] [-burst 0] [-max-body-bytes 1073741824]
//	        [-drain-grace 0] [-metrics-addr host:port]
//	        [-trace-out file.jsonl] [-profile-dir dir]
//	        [-cache memory] [-cache-size 1024] [-cache-ttl 0]
//	        [-cache-key secret]
//
// The -nodes list accepts "name=host:port" entries (name optional).
// Routing: each request goes to the ready node with the smallest
// probed queue depth plus relay requests in flight to it, ties to the
// earlier node in -nodes.
//
// Caching: -cache memory (or its other spelling, shared) turns on the
// relay cache. Its fingerprints are always keyed, because they come
// from untrusted bodies: by -cache-key when given (relays sharing a
// key derive the same fingerprints), else by a random per-process key.
//
// Endpoints:
//
//	POST /solve           routed to one node, with failover and caching
//	POST /solve/batch     streamed through one node (no mid-stream failover)
//	GET  /nodes           JSON node-set snapshot (state, depth, in-flight)
//	GET  /backends        proxied from the first ready node
//	GET  /healthz         relay liveness
//	GET  /readyz          relay readiness (503 once SIGTERM drain starts)
//	GET  /metrics         the relay's own telemetry (plus /debug/*)
//
// Rate limiting: -rate N -burst B gives every client (keyed by remote
// IP) a token bucket of B tokens refilling at N/s; exhausted buckets
// answer 429 with a Retry-After header. -rate 0 disables limiting.
//
// Determinism contract: a /solve response is byte-identical no matter
// which node served it (nodes run deterministic backends and encode
// identically), so failover — and serving from the relay cache — is
// observable only in latency, never in bytes. Traceparent propagates on
// every forward: one traced replay through the relay yields a single
// connected trace tree spanning client, relay and nodes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"aa/internal/cache"
	"aa/internal/cliutil"
	"aa/internal/ratelimit"
	"aa/internal/router"
	"aa/internal/serveutil"
	"aa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "aarelay: %v\n", err)
		os.Exit(1)
	}
}

// relay holds the routing, admission and caching state behind the
// handlers.
type relay struct {
	rt      *router.Router
	limiter *ratelimit.Limiter // nil = no rate limiting
	cache   cache.Cache
	client  *http.Client
	log     *slog.Logger
	health  *serveutil.Health

	maxBodyBytes int64 // /solve body cap; <= 0 = unlimited
}

// run is the testable body of the command. ready, when non-nil,
// receives the bound address once the listener is up.
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("aarelay", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "localhost:8090", "listen address (use :0 for an ephemeral port)")
		nodes         = fs.String("nodes", "", "comma-separated aaserve nodes: [name=]host:port")
		probeInterval = fs.Duration("probe-interval", time.Second,
			"node health/load probe interval")
		rate         = fs.Float64("rate", 0, "per-client solve admission rate in requests/second (0 = unlimited)")
		burst        = fs.Float64("burst", 0, "per-client admission burst (0 = 2x rate, min 1)")
		maxBodyBytes = fs.Int64("max-body-bytes", 1<<30,
			"reject /solve bodies larger than this (0 = unlimited)")
		drainGrace = fs.Duration("drain-grace", 0,
			"on SIGTERM, keep the listener open this long with /readyz already 503 (0 = drain immediately)")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	var cacheFlags cliutil.CacheFlags
	cacheFlags.AddFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	if *nodes == "" {
		return errors.New("-nodes is required (comma-separated host:port list)")
	}
	nodeList, err := router.ParseNodes(*nodes)
	if err != nil {
		return err
	}
	shutdown, err := common.Start("aarelay", stderr)
	if err != nil {
		return err
	}
	defer shutdown()
	// A serving process always meters itself (same contract as aaserve).
	telemetry.Enable()

	// Relay fingerprints come from untrusted cross-client bodies, so
	// they are always keyed: -cache-key, else a random per-process key.
	cacheCfg := cacheFlags.Config()
	if cacheCfg.Key.IsZero() {
		cacheCfg.Key = cache.RandomKey()
	}
	relayCache, err := cache.New(cacheCfg)
	if err != nil {
		return err
	}

	rt, err := router.New(nodeList)
	if err != nil {
		return err
	}
	rt.ProbeNow() // seed states/depths before the first request
	rt.StartProber(*probeInterval)
	defer rt.Stop()

	var limiter *ratelimit.Limiter
	if *rate > 0 {
		b := *burst
		if b <= 0 {
			b = 2 * (*rate)
			if b < 1 {
				b = 1
			}
		}
		limiter = ratelimit.NewLimiter(*rate, b)
	}

	rl := &relay{
		rt:      rt,
		limiter: limiter,
		cache:   relayCache,
		client:  &http.Client{}, // no timeout: solve deadlines belong to the nodes
		log:     slog.New(slog.NewJSONHandler(stderr, nil)),
		health:  &serveutil.Health{},

		maxBodyBytes: *maxBodyBytes,
	}

	return serveutil.ListenAndServe(serveutil.ServeConfig{
		Name:       "aarelay",
		Addr:       *addr,
		Handler:    rl.mux(),
		Stderr:     stderr,
		Ready:      ready,
		Health:     rl.health,
		DrainGrace: *drainGrace,
	})
}

// mux wires the relay handlers behind the shared observability layer.
func (rl *relay) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rl.handleSolve)
	mux.HandleFunc("/solve/batch", rl.handleBatch)
	mux.HandleFunc("/nodes", rl.handleNodes)
	mux.HandleFunc("/backends", rl.handleBackends)
	mux.HandleFunc("/healthz", rl.health.LivenessHandler())
	mux.HandleFunc("/readyz", rl.health.ReadinessHandler())
	mux.Handle("/", telemetry.Handler(telemetry.Default))
	log := rl.log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return serveutil.WithObservability(log, mux)
}
