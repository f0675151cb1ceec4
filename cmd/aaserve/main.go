// Command aaserve runs the AA solver as a long-lived HTTP service: the
// engine pipeline (pooled workspaces, telemetry, invariant checks,
// cancellation and queue backpressure) behind two JSON endpoints.
//
// Usage:
//
//	aaserve [-addr localhost:8080] [-backend a2] [-workers 0] [-queue 0]
//	        [-deadline 0] [-history-interval 10s] [-metrics-addr host:port]
//	        [-trace-out file.jsonl] [-profile-dir dir] [-check]
//	        [-cache memory] [-cache-size 1024] [-cache-ttl 0] [-cache-warm-k 8]
//	        [-max-batch-bytes 1073741824] [-drain-grace 0]
//
// Endpoints:
//
//	POST /solve           one instance (internal/instio JSON) → assignment
//	POST /solve/batch     JSON array of instances → array of assignments
//	GET  /backends        the solver registry: one line per backend
//	GET  /healthz         liveness probe (200 for the life of the process)
//	GET  /readyz          readiness probe (503 from SIGTERM-drain start);
//	                      its AA-Queue-Depth header is the number of
//	                      solves waiting for a worker, aarelay's load
//	                      signal
//	GET  /metrics         Prometheus text exposition (plus /debug/vars
//	                      and /debug/pprof/), the same handler the
//	                      -metrics-addr flag serves elsewhere
//	GET  /metrics/history JSON ring of periodic metric snapshots
//	                      (-history-interval apart; ?last=N limits)
//
// Every request is assigned a request ID (the X-Request-ID header is
// honored when the caller sends one, minted otherwise and always
// echoed back) and logged as one structured JSON line on stderr. With
// tracing on (-trace-out), an incoming W3C traceparent header parents
// the server-side http.request span — and everything under it: the
// engine.solve root, the core solver stages, checking — to the
// caller's span, and the response traceparent header carries the
// server span back.
//
// Per-request query parameters on /solve and /solve/batch are the ones
// engine.ParseQuery reads (the parser aarelay keys its cache with):
// backend (default: the -backend flag), seed (default 1), deadline like
// "500ms" (default: -deadline), check=1, maxnodes for backend=exact, and
// cache=bypass to skip the solve-result cache for this request.
//
// Responses: 200 with an assignment JSON (server, alloc, utility,
// superOptimalBound) on success; 400 for malformed instances (the body
// names the field path, like "instio: threads[17].ys: ...", and bytes
// after the instance or the batch's closing ']' are malformed too) or
// unknown backends; 413 (typed JSON: error, code, limitBytes) when a
// request body exceeds -max-batch-bytes, the body cap of both /solve
// (code body_too_large) and /solve/batch (code batch_too_large); 422
// when a requested check fails, or when the answer holds a number JSON
// cannot carry because the instance overflows float64 (the body names
// the field, like "instio: utility: non-finite number ..."); 429 when
// the solve queue is full (retry later); 504 when the deadline expires
// mid-solve.
//
// /solve/batch streams: instances are decoded off the wire one at a
// time through instio.Decoder's fixed 64 KiB window, solved through the
// worker pool with a bounded in-flight window, and each assignment is
// written as soon as it is ready, so server memory is bounded by the
// window rather than the batch. The body is
// the JSON array a json.Encoder with two-space indentation would write
// for the same assignments (instio.AppendAssignment writes each element);
// a solve failure after the response has begun aborts the connection
// mid-array rather than fabricating a status.
//
// On SIGINT/SIGTERM, /readyz flips to 503 immediately, the listener
// stays open for -drain-grace (so load balancers and the aarelay prober
// observe the flip and stop routing here), then in-flight requests
// drain (up to 10s) before the process exits; /healthz stays 200
// throughout — a draining node is healthy, just not ready. The startup
// line "aaserve: listening on
// http://ADDR" is printed to stderr once the socket is bound; with
// -addr ending in :0 the kernel picks the port and scripts parse that
// line (scripts/serve_smoke.sh does exactly this).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	"aa/internal/check"
	"aa/internal/cliutil"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
	"aa/internal/serveutil"
	"aa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "aaserve: %v\n", err)
		os.Exit(1)
	}
}

// server holds the engine and per-request defaults behind the handlers.
type server struct {
	eng      *engine.Engine
	deadline time.Duration // default per-request deadline, 0 = none
	log      *slog.Logger  // JSON access/lifecycle logs; nil = discard
	health   *serveutil.Health

	maxBatchBytes int64 // /solve and /solve/batch body cap; <= 0 = unlimited
}

// capFlag names the body cap's flag in the typed 413.
const capFlag = "-max-batch-bytes"

// run is the testable body of the command. ready, when non-nil,
// receives the bound address once the listener is up (tests use it
// instead of parsing stderr).
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("aaserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "localhost:8080", "listen address (use :0 for an ephemeral port)")
		backend  = fs.String("backend", "a2", "default solver backend (see /backends)")
		workers  = fs.Int("workers", 0, "solver pool workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "solve queue depth before 429s (0 = 2x workers)")
		deadline = fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
		history  = fs.Duration("history-interval", 10*time.Second,
			"metrics-history snapshot interval for /metrics/history (0 disables)")
		maxBatchBytes = fs.Int64("max-batch-bytes", 1<<30,
			"reject /solve and /solve/batch bodies larger than this with 413 (0 = unlimited)")
		drainGrace = fs.Duration("drain-grace", 0,
			"on SIGTERM, keep the listener open this long with /readyz already 503 so load balancers eject the node before in-flight draining begins (0 = drain immediately)")
	)
	var common cliutil.Common
	common.AddFlags(fs)
	var cacheFlags cliutil.CacheFlags
	cacheFlags.AddEngineFlags(fs)
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		if errors.Is(err, cliutil.ErrHelp) {
			return nil
		}
		return err
	}
	shutdown, err := common.Start("aaserve", stderr)
	if err != nil {
		return err
	}
	defer shutdown()
	// A serving process always meters itself: the /metrics endpoint is
	// part of the API surface, not an opt-in debug flag. Same for the
	// metrics history behind /metrics/history.
	telemetry.Enable()
	if *history > 0 {
		telemetry.Default.StartHistory(*history)
	}

	if _, ok := engine.Lookup(*backend); !ok {
		return fmt.Errorf("unknown default backend %q", *backend)
	}
	solveCache, err := cacheFlags.Build()
	if err != nil {
		return err
	}
	eng := engine.New(engine.Options{
		Backend:    *backend,
		Workers:    *workers,
		QueueDepth: *queue,
		Cache:      solveCache,
		WarmK:      cacheFlags.WarmK,
	})
	defer eng.Close()
	log := slog.New(slog.NewJSONHandler(stderr, nil))
	srv := &server{
		eng: eng, deadline: *deadline, log: log,
		health:        &serveutil.Health{},
		maxBatchBytes: *maxBatchBytes,
	}

	return serveutil.ListenAndServe(serveutil.ServeConfig{
		Name:       "aaserve",
		Addr:       *addr,
		Handler:    srv.mux(),
		Stderr:     stderr,
		Ready:      ready,
		Health:     srv.health,
		DrainGrace: *drainGrace,
	})
}

// mux wires the handlers behind the observability middleware (request
// IDs, traceparent propagation, http.request spans, JSON access logs);
// split out so tests can drive the server through httptest without a
// listener or signals.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/solve/batch", s.handleBatch)
	mux.HandleFunc("/backends", handleBackends)
	health := s.health
	if health == nil {
		health = &serveutil.Health{}
	}
	mux.HandleFunc("/healthz", health.LivenessHandler())
	readyz := health.ReadinessHandler()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serveutil.HeaderQueueDepth, strconv.Itoa(s.eng.QueueDepth()))
		readyz(w, r)
	})
	// The telemetry handler owns /metrics, /debug/* and the
	// index; mounting it at / keeps this binary's exposition identical
	// to every other binary's -metrics-addr endpoint.
	mux.Handle("/", telemetry.Handler(telemetry.Default))
	log := s.log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return serveutil.WithObservability(log, mux)
}

// begin parses the shared query into req (engine.ParseQuery; the
// engine's default backend and the -deadline flag stand in for a
// backend or deadline the query leaves out) and caps the body with the
// route's 413 code. A false return means the 400 or 413 is written.
func (s *server) begin(w http.ResponseWriter, r *http.Request, req *engine.Request, code string) (time.Duration, bool) {
	deadline, err := engine.ParseQuery(r.URL.Query(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, false
	}
	req.WantUtility = true
	if deadline == 0 {
		deadline = s.deadline
	}
	return deadline, serveutil.LimitBody(w, r, s.maxBatchBytes, capFlag, code)
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an instance (see internal/instio for the JSON format)", http.StatusMethodNotAllowed)
		return
	}
	var req engine.Request
	deadline, ok := s.begin(w, r, &req, "body_too_large")
	if !ok {
		return
	}
	in, err := instio.Decode(r.Body)
	if err != nil {
		if !serveutil.TooLarge(w, err, capFlag, "body_too_large") {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	req.Instance = in
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	resp, err := s.eng.Submit(ctx, &req)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	buf, err := instio.AppendAssignment(nil, assignmentJSON(in, resp), "")
	if err != nil {
		writeSolveError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(buf, '\n'))
}

// batchBodyError marks a request-side decode failure inside the
// streaming batch pipeline so the handler maps it to 400 (the client
// sent a bad element) rather than 500.
type batchBodyError struct{ err error }

func (e *batchBodyError) Error() string { return e.err.Error() }
func (e *batchBodyError) Unwrap() error { return e.err }

// handleBatch decodes instances off the request body one at a time
// (instio.Decoder reads through a fixed window and holds only the
// instance being built), pipelines them through the engine with a
// bounded in-flight window, and writes each assignment as soon as it is
// solved. Memory stays
// proportional to the window (and the largest single instance), not to
// the batch, while the bytes on the wire are what a json.Encoder with
// SetIndent("", "  ") writes for the whole []AssignmentJSON:
// "[\n  ", elements in MarshalIndent's layout at one indent level,
// ",\n  " separators, "\n]\n".
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON array of instances", http.StatusMethodNotAllowed)
		return
	}
	var proto engine.Request
	deadline, ok := s.begin(w, r, &proto, "batch_too_large")
	if !ok {
		return
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	// The pipeline reads the tail of the request body while writing the
	// head of the response; without this the HTTP/1 server closes the
	// body at the first write. Best-effort: HTTP/2 is always full
	// duplex, and test recorders have no body lifecycle to manage.
	_ = http.NewResponseController(w).EnableFullDuplex()
	dec := instio.NewDecoder(r.Body)
	next := func() (*engine.Request, error) {
		in, err := dec.Next()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, &batchBodyError{fmt.Errorf("batch body: %w", err)}
		}
		req := proto
		req.Instance = in
		return &req, nil
	}
	started := false
	var buf []byte // emit is never called concurrently with itself
	emit := func(req *engine.Request, resp *engine.Response) error {
		sep := ",\n  "
		if !started {
			sep = "[\n  "
		}
		var err error
		buf, err = instio.AppendAssignment(append(buf[:0], sep...), assignmentJSON(req.Instance, resp), "  ")
		if err != nil {
			return err
		}
		if !started {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			started = true
		}
		_, err = w.Write(buf)
		return err
	}
	_, err := s.eng.SolveBatchStream(ctx, next, emit)
	switch {
	case err != nil && !started:
		// Nothing is on the wire yet, so a real error response is still
		// possible.
		var bad *batchBodyError
		switch {
		case serveutil.TooLarge(w, err, capFlag, "batch_too_large"):
			// The typed 413 is written.
		case errors.As(err, &bad):
			http.Error(w, bad.Error(), http.StatusBadRequest)
		default:
			writeSolveError(w, err)
		}
	case err != nil:
		// The 200 header and part of the array are already written; the
		// only honest signal left is aborting the connection so the
		// client sees a truncated body, never a parseable success.
		panic(http.ErrAbortHandler)
	case !started:
		http.Error(w, "empty batch", http.StatusBadRequest)
	default:
		_, _ = io.WriteString(w, "\n]\n")
	}
}

func handleBackends(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, name := range engine.Backends() {
		bk, _ := engine.Lookup(name)
		fmt.Fprintf(w, "%-10s %s", bk.Name, bk.Doc)
		if len(bk.Aliases) > 0 {
			fmt.Fprintf(w, " (aliases: %v)", bk.Aliases)
		}
		fmt.Fprintln(w)
	}
}

// writeSolveError maps engine pipeline errors onto HTTP status codes.
func writeSolveError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client went away; nginx's conventional code
	case errors.Is(err, engine.ErrUnknownBackend), errors.Is(err, engine.ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, check.ErrInfeasible), errors.Is(err, check.ErrRatio), errors.Is(err, instio.ErrNonFinite),
		errors.Is(err, core.ErrNodeLimit):
		status = http.StatusUnprocessableEntity
	}
	http.Error(w, err.Error(), status)
}

// assignmentJSON builds the wire response from an engine response
// without re-solving: utility comes from the pipeline (WantUtility) and
// the bound is recomputed only for backends that do not produce one.
func assignmentJSON(in *core.Instance, resp *engine.Response) instio.AssignmentJSON {
	bound := resp.Bound
	if math.IsNaN(bound) {
		bound = core.SuperOptimal(in).Total
	}
	return instio.AssignmentJSON{
		Server:  resp.Assignment.Server,
		Alloc:   resp.Assignment.Alloc,
		Utility: resp.Utility,
		Bound:   bound,
	}
}
