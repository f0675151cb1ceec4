package telemetry

import (
	"bufio"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// Handler returns an http.Handler exposing the registry and the process:
//
//	/metrics          Prometheus text exposition format
//	/metrics/history  JSON ring of periodic snapshots (StartHistory)
//	/debug/vars       standard expvar (cmdline, memstats)
//	/debug/pprof      the full net/http/pprof suite
//
// The root path serves a plain index of the endpoints.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics/history", historyHandler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "aa telemetry\n\n/metrics\n/metrics/history\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running telemetry HTTP server.
type Server struct {
	// Addr is the bound address, with the real port when the caller
	// asked for :0.
	Addr string

	srv *http.Server
	ln  net.Listener
}

// Serve starts an HTTP server for reg on addr (e.g. "localhost:0") and
// returns once the listener is bound, so Addr is immediately usable.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else has
		// nowhere to go but the process log.
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "telemetry: serve %s: %v\n", s.Addr, err)
		}
	}()
	return s, nil
}

// Close stops the server immediately (in-flight scrapes are cut off;
// metrics are process state, nothing is lost).
func (s *Server) Close() error { return s.srv.Close() }

// Setup wires the two CLI observability flags in one call: a non-empty
// metricsAddr starts a Server for Default, a non-empty tracePath opens
// (truncates) the JSONL trace file behind a bufio.Writer, and either
// one enables telemetry process-wide. logf, when non-nil, receives one
// line per activated endpoint (CLIs pass a stderr printf).
//
// The returned shutdown func stops the server, detaches the trace sink
// (DetachTraceWriter, which waits out in-flight records and flushes the
// buffer), closes the trace file, and reports the first error — trace
// data is an artifact, a failed flush must not be dropped silently.
// shutdown is non-nil even when both flags are empty.
func Setup(metricsAddr, tracePath string, logf func(format string, args ...any)) (shutdown func() error, err error) {
	var srv *Server
	var traceFile *os.File
	if metricsAddr != "" {
		srv, err = Serve(metricsAddr, Default)
		if err != nil {
			return nil, err
		}
		Enable()
		if logf != nil {
			logf("telemetry: serving /metrics and /debug/pprof on http://%s\n", srv.Addr)
		}
	}
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, fmt.Errorf("telemetry: trace output: %w", err)
		}
		Enable()
		SetTraceWriter(bufio.NewWriter(traceFile))
		if logf != nil {
			logf("telemetry: writing trace events to %s\n", tracePath)
		}
	}
	return func() error {
		if srv != nil {
			srv.Close()
		}
		if traceFile == nil {
			return nil
		}
		err := DetachTraceWriter()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("telemetry: trace output: %w", err)
		}
		return nil
	}, nil
}
