// Package serveutil is the shared HTTP serving layer behind the aa
// binaries (aaserve nodes, the aarelay tier): request observability
// (request IDs, W3C traceparent propagation, http.request spans, JSON
// access logs), the liveness/readiness split load balancers key on, and
// the signal-driven listen/drain/shutdown lifecycle — factored here so
// a node and the relay that fronts it drain and trace identically.
package serveutil

import (
	"log/slog"
	"net/http"
	"time"

	"aa/internal/telemetry"
)

// stageRequest is the http.request span around every request.
var stageRequest = telemetry.NewStage("http.request", nil)

// Request/response header names.
const (
	HeaderTraceparent = "traceparent"
	HeaderRequestID   = "X-Request-ID"
)

// statusWriter captures the status code and body size the handler
// produced, for the access log and the http.request span.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards http.Flusher so streaming responses keep working
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the server's writer
// through the wrapper — the streaming batch handler needs
// EnableFullDuplex, which only the real writer implements.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// WithObservability wraps next with request IDs, traceparent
// extraction/injection, the http.request span and the access log. An
// incoming traceparent header makes the http.request span (and
// everything under it) a child of the caller's span, and the response
// carries the server-side span back so callers can link their records.
func WithObservability(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		// Honor a caller-supplied request ID (so log lines correlate
		// across services); mint one otherwise.
		reqID := r.Header.Get(HeaderRequestID)
		if reqID == "" {
			reqID = telemetry.NewSpanID().String()
		}
		w.Header().Set(HeaderRequestID, reqID)

		ctx := r.Context()
		if telemetry.TraceEnabled() {
			if sc, err := telemetry.ParseTraceparent(r.Header.Get(HeaderTraceparent)); err == nil {
				// The remote caller's span becomes the parent; a missing or
				// malformed header falls through to the process default.
				ctx = telemetry.ContextWithSpan(ctx, sc)
			}
		}
		ctx, sp := stageRequest.Start(ctx)
		sp.Str("method", r.Method)
		sp.Str("path", r.URL.Path)
		sp.Str("request_id", reqID)
		sc := sp.Context()
		if sc.Valid() {
			w.Header().Set(HeaderTraceparent, sc.Traceparent())
		}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)

		sp.Int("status", sw.status)
		sp.Int("bytes", sw.bytes)
		sp.End()
		attrs := []slog.Attr{
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
		}
		if sc.Valid() {
			attrs = append(attrs,
				slog.String("trace_id", sc.TraceID.String()),
				slog.String("span_id", sc.SpanID.String()))
		}
		log.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
	})
}
