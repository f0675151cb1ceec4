package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aa/internal/engine"
	"aa/internal/instio"
)

// newBatchServer builds a test server with a -max-batch-bytes cap;
// newTestServer (main_test.go) leaves batches unlimited.
func newBatchServer(t *testing.T, maxBytes int64) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Backend: "a2", Workers: 2})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer((&server{eng: eng, maxBatchBytes: maxBytes}).mux())
	t.Cleanup(ts.Close)
	return ts
}

// TestBatchStreamMatchesBuffered pins the wire contract of the
// streaming handler: for the same batch it must produce byte-for-byte
// what a json.Encoder with two-space indentation writes for the array
// of per-instance /solve answers — the output of the buffered handler
// it replaced: same framing, same indentation, same trailing newline.
func TestBatchStreamMatchesBuffered(t *testing.T) {
	ts := newBatchServer(t, 0)
	resp, body := postSolve(t, ts, "/solve", demoInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve status %d: %s", resp.StatusCode, body)
	}
	var one instio.AssignmentJSON
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		batch string
		count int
	}{
		{"[" + demoInstance + "]", 1},
		{"[" + demoInstance + "," + demoInstance + "," + demoInstance + "]", 3},
		// Whitespace between elements must not leak into the output.
		{"[\n  " + demoInstance + " ,\n\t" + demoInstance + "\n]", 2},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		all := make([]instio.AssignmentJSON, tc.count)
		for i := range all {
			all[i] = one
		}
		if err := enc.Encode(all); err != nil {
			t.Fatal(err)
		}
		resp, got := postSolve(t, ts, "/solve/batch", tc.batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("streamed body differs from the encoded /solve answers:\n--- want ---\n%s\n--- streamed ---\n%s", want.Bytes(), got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("streamed Content-Type = %q", ct)
		}
	}
}

// TestBatchStreamErrors: request-side failures found before any output
// map to 400 with a message naming the fault.
func TestBatchStreamErrors(t *testing.T) {
	ts := newBatchServer(t, 0)
	for _, tc := range []struct {
		name, body string
		status     int
		contains   string
	}{
		{"empty", "[]", http.StatusBadRequest, "empty batch"},
		{"null", "null", http.StatusBadRequest, "batch body"},
		{"object", "{}", http.StatusBadRequest, "batch body"},
		{"garbage", "not json", http.StatusBadRequest, "batch body"},
		{"bad element", `[{"m": 0, "c": 1, "threads": []}]`, http.StatusBadRequest, "instance 0"},
	} {
		resp, body := postSolve(t, ts, "/solve/batch", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(string(body), tc.contains) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.contains)
		}
	}
}

// TestDecodeErrorBodyPinned: a body the decoder rejects inside a
// number gets a 400 whose body is byte-for-byte what the decoder with
// only an isolated-token number read produced, on both routes.
func TestDecodeErrorBodyPinned(t *testing.T) {
	ts := newBatchServer(t, 0)
	for _, tc := range []struct{ path, body, want string }{
		{"/solve/batch", `[{"m":2,"c":100,"threads":[{"kind":"linear","slope":1},{"kind":"linear","slope":1.5e+}]}]`,
			"batch body: instio: instance 0: threads[1].slope: invalid number \"1.5e+\" at offset 80\n"},
		{"/solve/batch", `[{"m":2,"c":1e309,"threads":[{"kind":"linear","slope":1}]}]`,
			"batch body: instio: instance 0: c: number 1e309 out of float64 range\n"},
		{"/solve", `{"m":2,"c":12`, "instio: unexpected EOF\n"},
		{"/solve", `{"m":2,"c":1.5e+,"threads":[{"kind":"linear","slope":1}]}`,
			"instio: c: invalid number \"1.5e+\" at offset 11\n"},
	} {
		resp, body := postSolve(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || string(body) != tc.want {
			t.Errorf("%s %s: %d %q, want 400 %q", tc.path, tc.body, resp.StatusCode, body, tc.want)
		}
	}
}

// A batch with a decode failure after valid elements: by then part of
// the 200 response is on the wire, so the server aborts the connection
// rather than dressing the truncated array up as a success.
func TestBatchStreamMidStreamAbort(t *testing.T) {
	ts := newBatchServer(t, 0)
	batch := "[" + demoInstance + "," + demoInstance + "," + `{"m": "broken"` + "]"
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json", strings.NewReader(batch))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if _, err := io.ReadAll(resp.Body); err == nil {
				t.Fatal("mid-stream decode failure produced a complete 200 response")
			}
		}
		// A non-200 means no output had been written yet (the decoder
		// outran the solvers) and the error mapped to a status: also
		// correct, just a different interleaving.
	}
}

// TestBatchTooLarge: the -max-batch-bytes satellite. A declared
// Content-Length over the cap is rejected up front with a typed JSON
// 413 — no body bytes are read, so a multi-GB declaration costs
// nothing. The regression this pins: the old handler buffered the whole
// body first and would have tried to allocate it.
func TestBatchTooLarge(t *testing.T) {
	eng := engine.New(engine.Options{Backend: "a2", Workers: 1})
	t.Cleanup(eng.Close)
	h := (&server{eng: eng, maxBatchBytes: 1 << 20}).mux()

	req := httptest.NewRequest(http.MethodPost, "/solve/batch", strings.NewReader("[]"))
	req.ContentLength = 5 << 30 // a 5 GiB declaration, no actual payload
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	var e struct {
		Code  string `json:"code"`
		Limit int64  `json:"limitBytes"`
		Size  int64  `json:"sizeBytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("413 body is not JSON: %v\n%s", err, rec.Body)
	}
	if e.Code != "batch_too_large" || e.Limit != 1<<20 || e.Size != 5<<30 {
		t.Fatalf("typed error %+v", e)
	}
}

// TestBatchTooLargeChunked: a chunked body (no Content-Length) that
// overruns the cap mid-read is also rejected with the typed 413 — the
// MaxBytesReader catches what the up-front check cannot see. The rest
// of that body is still on the wire, so the server must not go on to
// read the connection's next request past it: net/http reports that as
// "invalid concurrent Body.Read call" in its error log.
func TestBatchTooLargeChunked(t *testing.T) {
	var errLog lockedBuffer
	eng := engine.New(engine.Options{Backend: "a2", Workers: 2})
	t.Cleanup(eng.Close)
	ts := httptest.NewUnstartedServer((&server{eng: eng, maxBatchBytes: 64}).mux())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()
	body := "[" + demoInstance + "]" // well-formed, just over 64 bytes
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve/batch", io.NopCloser(strings.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // force chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "batch_too_large") {
		t.Fatalf("413 body missing typed code: %s", data)
	}
	ts.Close() // waits for the server side of the connection to finish
	if l := errLog.String(); strings.Contains(l, "Body.Read") {
		t.Fatalf("server error log after the 413:\n%s", l)
	}
}

// lockedBuffer is an io.Writer safe for the server's connection
// goroutines to log into while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSolveTooLarge: /solve shares the -max-batch-bytes body cap. A
// declared Content-Length over the cap is rejected with the typed 413
// before any body byte is read.
func TestSolveTooLarge(t *testing.T) {
	eng := engine.New(engine.Options{Backend: "a2", Workers: 1})
	t.Cleanup(eng.Close)
	h := (&server{eng: eng, maxBatchBytes: 1 << 20}).mux()

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(demoInstance))
	req.ContentLength = 5 << 30 // a 5 GiB declaration, no actual payload
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	var e struct {
		Code  string `json:"code"`
		Limit int64  `json:"limitBytes"`
		Size  int64  `json:"sizeBytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("413 body is not JSON: %v\n%s", err, rec.Body)
	}
	if e.Code != "body_too_large" || e.Limit != 1<<20 || e.Size != 5<<30 {
		t.Fatalf("typed error %+v", e)
	}
}

// TestSolveTooLargeChunked: a chunked /solve body that overruns the cap
// mid-decode is rejected with the same typed 413, not a 400, while a
// body under the cap still solves.
func TestSolveTooLargeChunked(t *testing.T) {
	ts := newBatchServer(t, int64(len(demoInstance)))
	if resp, body := postSolve(t, ts, "/solve", demoInstance); resp.StatusCode != http.StatusOK {
		t.Fatalf("body at the cap: status %d: %s", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve", io.NopCloser(strings.NewReader(demoInstance+"  ")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // force chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"code": "body_too_large"`) {
		t.Fatalf("413 body missing typed code: %s", data)
	}
}

// TestBatchStreamLargeBatch runs a batch big enough to exercise real
// decode/solve/emit overlap through the HTTP stack and checks every
// element of the response array arrives intact and in order.
func TestBatchStreamLargeBatch(t *testing.T) {
	ts := newBatchServer(t, 0)
	const k = 40
	elems := make([]string, k)
	for i := range elems {
		elems[i] = demoInstance
	}
	resp, body := postSolve(t, ts, "/solve/batch", "["+strings.Join(elems, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []struct {
		Server []int `json:"server"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(out) != k {
		t.Fatalf("got %d results, want %d", len(out), k)
	}
	for i, o := range out {
		if len(o.Server) != 4 {
			t.Fatalf("result %d: %d servers, want 4", i, len(o.Server))
		}
	}
}
