package serveutil

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestHealthSplit(t *testing.T) {
	var h Health
	get := func(fn http.HandlerFunc) (int, string) {
		rec := httptest.NewRecorder()
		fn(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	if code, body := get(h.LivenessHandler()); code != 200 || body != "ok" {
		t.Fatalf("liveness = %d %q, want 200 ok", code, body)
	}
	if code, body := get(h.ReadinessHandler()); code != 200 || body != "ok" {
		t.Fatalf("readiness before drain = %d %q, want 200 ok", code, body)
	}
	h.StartDrain()
	h.StartDrain() // idempotent
	if !h.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if code, body := get(h.ReadinessHandler()); code != 503 || body != "draining" {
		t.Fatalf("readiness during drain = %d %q, want 503 draining", code, body)
	}
	if code, _ := get(h.LivenessHandler()); code != 200 {
		t.Fatalf("liveness during drain = %d, want 200", code)
	}
}

func TestWithObservability(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "short and stout")
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/brew", nil)
	req.Header.Set(HeaderRequestID, "req-123")
	WithObservability(log, inner).ServeHTTP(rec, req)
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
	if got := rec.Header().Get(HeaderRequestID); got != "req-123" {
		t.Fatalf("request ID not echoed: %q", got)
	}
	line := buf.String()
	for _, want := range []string{`"request_id":"req-123"`, `"status":418`, `"path":"/brew"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %s: %s", want, line)
		}
	}

	// No caller-supplied ID: one must be minted and echoed.
	rec = httptest.NewRecorder()
	WithObservability(log, inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Header().Get(HeaderRequestID) == "" {
		t.Fatal("no request ID minted")
	}
}

// TestListenAndServeLifecycle runs the real lifecycle: bind :0, serve a
// request, SIGTERM, observe the readiness flip inside the drain grace,
// and a clean nil return.
func TestListenAndServeLifecycle(t *testing.T) {
	var h Health
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", h.ReadinessHandler())
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "pong") })
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var stderr bytes.Buffer
	go func() {
		done <- ListenAndServe(ServeConfig{
			Name: "testsrv", Addr: "127.0.0.1:0", Handler: mux,
			Stderr: &stderr, Ready: ready, Health: &h, DrainGrace: 2 * time.Second,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v (stderr: %s)", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("never ready")
	}
	resp, err := http.Get("http://" + addr + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ping = %d", resp.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped during drain grace")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no clean shutdown")
	}
	if !strings.Contains(stderr.String(), "testsrv: listening on http://") {
		t.Fatalf("missing listening line: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Fatalf("missing draining line: %s", stderr.String())
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	err := ListenAndServe(ServeConfig{Name: "x", Addr: "256.256.256.256:1", Stderr: io.Discard})
	if err == nil {
		t.Fatal("expected listen error")
	}
}

// TestListenAndServeDropsTricklingHeader: a client that sends half a
// request header and stops has its connection closed once the header
// deadline passes.
func TestListenAndServeDropsTricklingHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ServeConfig{
			Name: "testsrv", Addr: "127.0.0.1:0", Handler: http.NotFoundHandler(),
			Stderr: io.Discard, Ready: ready,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("never ready")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /solve HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after half a header", time.Since(start).Round(time.Millisecond))
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no clean shutdown")
	}
}
